# Build / verification entry points. `make check` is the full gate, and
# the only list of its parts (CI runs `go build ./... && make check`): vet,
# gofmt over the whole tree, the repo's own static analyzers (cmd/tesslint),
# the one-codec and one-kernel greps, the import and cmd/ layout guards,
# the whole test suite under the race detector (which holds the
# fault-containment, checkpoint and daemon e2e suites — each test runs
# once), the coverage floor, the fuzz seed corpora, the bench module, a
# Table II smoke run and one pass each of the kernel, merge, tools
# pipeline and density benchmarks, so
# the intra-rank worker-pool concurrency, the
# rank-isolation/determinism/hot-path invariants, AND the failure model
# (abort, watchdog, crash containment) are checked on every run.

GO ?= go

# Hang guard: the fault-containment layer turns deadlocks into errors, so
# any test that still hangs is itself a containment bug — bound it rather
# than letting CI sit for the default 10 minutes.
TEST_TIMEOUT ?= 4m

.PHONY: build test vet fmt lint onecodec onekernel layers frontdoor race cover fuzz-seeds bench-module tessbench-smoke kernel-bench-smoke merge-bench-smoke tools-bench-smoke density-bench-smoke check bench bench-stack loc

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

vet:
	$(GO) vet ./...

# gofmt walks the whole tree, the nested bench/ module included: a file
# that is not gofmt-clean is named and fails the gate.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt: not formatted:"; echo "$$out"; exit 1; }

lint:
	$(GO) run ./cmd/tesslint ./...

# One cursor for every on-disk format: only internal/wire may touch
# encoding/binary, so a private codec cannot grow back unnoticed. And one
# mesh layout: v2 is the only one written or read, so outside the tests
# and comments no file may name the retired v1 magic at all.
onecodec:
	@! grep -rl --include='*.go' --exclude='*_test.go' '"encoding/binary"' . | grep -v '^./internal/wire/'
	@! grep -rn --include='*.go' --exclude='*_test.go' -e 'meshMagic\b' -e '0x744d455348763101' -e 'tMESHv1' . \
		| grep -v -e ':[0-9]*:[[:space:]]*//'

# One way to build a cell: outside the kernel and the benchmark module,
# non-test code names no voronoi.Compute* but ComputeCellReused, the
# session's one reusable cell per worker, so a second tessellation path
# cannot grow back unnoticed.
onekernel:
	@! grep -rnoE --include='*.go' --exclude='*_test.go' 'voronoi\.Compute[A-Za-z0-9_]*' . \
		| grep -v -e '^\./internal/voronoi/' -e '^\./bench/' -e ':voronoi\.ComputeCellReused$$'

# Engine below, analysis above: no engine package may depend on an
# analysis package, so the level-1 tools of the paper's Figure 4 stay on
# top of the tessellation library and cannot be wired back into it.
ENGINE_PKGS = core density meshio voronoi diy comm storage delaunay dtfe obs

# And the daemon stays on the public API: jobd, tessd and tessctl import
# package tess, never the engine packages under it (direct imports; what
# tess itself is built from is tess's business).
DAEMON_PKGS = ./internal/jobd ./cmd/tessd ./cmd/tessctl

layers:
	@! $(GO) list -deps $(addprefix ./internal/,$(ENGINE_PKGS)) | grep -E '^repro/internal/(voids|halo|track|multistream|stats|viz|cosmotools)$$'
	@! $(GO) list -f '{{join .Imports "\n"}}' $(DAEMON_PKGS) | grep -E '^repro/internal/(core|storage|diy|meshio|voronoi|comm)$$'

# One front door: cmd/ holds exactly the five binaries, and the root
# module's only other program is the benchmark's pair counter, so an
# untested program cannot grow back elsewhere (bench/ is its own module).
MAIN_PKGS = repro/cmd/tess repro/cmd/tessbench repro/cmd/tessctl repro/cmd/tessd repro/cmd/tesslint repro/scripts/pairwins

frontdoor:
	@test "$$(ls cmd | xargs)" = "tess tessbench tessctl tessd tesslint"
	@test "$$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | xargs)" = "$(MAIN_PKGS)" \
		|| { echo "frontdoor: package main set is not $(MAIN_PKGS)"; exit 1; }

race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

# Coverage floor on the observability-critical packages: the recorder
# itself, the comm layer that feeds its counters, the ghost exchange
# whose conservation laws the counters are tested against, the
# multi-tenant daemon whose admission/cancel/containment paths the e2e
# suite drives, the density pipeline whose byte-identity and
# mass-conservation oracles gate the density job kind, and the storage
# layer (snapshot sources + checkpoint commit protocol) the
# out-of-core/resume paths stand on, the byte cursor every on-disk
# decoder reads outside input through, the Bowyer-Watson builder and
# DTFE estimator whose exact tet order the density grid bytes follow, and
# the clipping kernel and mesh builder every production byte flows through
# (a rewritten sweep or weld table cannot shed the tests that pin it), the
# void finder behind a benchmark workload and Fig. 7 and 9's numbers, and
# the per-rank pipeline and session every production byte flows through,
# which hold the cull oracle and the kernel funnel pins (core's tests take
# about 100 s of the floor's time).
COVER_PKGS  = ./internal/obs ./internal/comm ./internal/diy ./internal/jobd ./internal/density ./internal/storage ./internal/wire ./internal/delaunay ./internal/dtfe ./internal/voronoi ./internal/meshio ./internal/voids ./internal/core
COVER_FLOOR = 70

cover:
	@fail=0; \
	for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -cover $$pkg | tail -n 1); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage reported for $$pkg"; fail=1; continue; fi; \
		if ! awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p >= f) }'; then \
			echo "FAIL: $$pkg coverage $$pct% is below the $(COVER_FLOOR)% floor"; fail=1; \
		fi; \
	done; \
	exit $$fail

# Every fuzz target's seed corpus, as plain tests and nothing else: a
# decoder that stops surviving an input somebody already found fails here
# by name. (`race` replays them too, among the rest and under the
# detector; this is the step CI used to carry on its own, seconds long.)
fuzz-seeds:
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/... -run '^Fuzz'

# The stack benchmark is a nested module (bench/go.mod), which `./...`
# from the root does not walk: vet it and run its tests (8^3 particles, two
# ops per workload, every oracle, BENCHMARK.json drift) on their own.
bench-module:
	$(GO) vet -C bench ./... && $(GO) test -C bench -timeout $(TEST_TIMEOUT) ./...

# Table II's harness has no tests of its own: one tiny sweep (8^3 on one,
# two and 27 ranks, the last 8/3-wide blocks under a ghost of 4; the
# data-model and communication tables) must run to the end.
tessbench-smoke:
	$(GO) run ./cmd/tessbench -sizes 8 -procs 1,2,27 -steps 2 -datamodel -comm > /dev/null

# The clipping kernel's one-minute check (BenchmarkKernelStream, one pass
# of each input) must run to the end, so that it cannot rot between the
# changes that quote it.
kernel-bench-smoke:
	$(GO) test -run '^$$' -bench KernelStream -benchtime 1x ./internal/voronoi > /dev/null

# The weld's check: one pass of BenchmarkMergeCanonical (the one-shot
# merge and a warm Merger, on a jittered 8^3 lattice and a 16^3 N-body
# snapshot) and of BenchmarkWeld (one block's Welder, cold and warm, on a
# 32^3 N-body step) must run to the end.
merge-bench-smoke:
	$(GO) test -run '^$$' -bench 'MergeCanonical|Weld$$' -benchtime 1x ./internal/meshio > /dev/null

# The tools pipeline's check: one pass of BenchmarkPipelineDueStep (a due
# step of the tools verb's default deck over a 32^3 simulation, every tool
# reading the step's one shared tessellation) must run to the end.
tools-bench-smoke:
	$(GO) test -run '^$$' -bench PipelineDueStep -benchtime 1x ./internal/cosmotools > /dev/null

# The density step's one-minute check: one Step then StepDensity on a
# 16^3 N-body snapshot (BenchmarkStepThenDensity, the build overlapped with
# the step) and one pass of each Pipeline.Triangulate size must run to the
# end.
density-bench-smoke:
	$(GO) test -run '^$$' -bench 'StepThenDensity|Triangulate' -benchtime 1x ./internal/core ./internal/density > /dev/null

check: vet fmt lint onecodec onekernel layers frontdoor race cover fuzz-seeds bench-module tessbench-smoke kernel-bench-smoke merge-bench-smoke tools-bench-smoke density-bench-smoke

# Headline perf benches: worker-pool scaling and allocation counts, and the
# clipping kernel alone (ns/cell and the candidate funnel per cell on the
# halo mock and an N-body snapshot, with and without the early cull).
bench:
	$(GO) test -run '^$$' -bench 'ComputeParallelism|ComputeCellAllocs' -benchmem -benchtime 2x .
	$(GO) test -run '^$$' -bench 'KernelStream' -benchmem -benchtime 2x ./internal/voronoi

# The whole-stack benchmark (bench/README.md): every workload, one record
# line per run, named after the commit. A performance claim needs paired
# runs against its parent instead: scripts/benchpairs.sh <base-ref>.
bench-stack:
	bash bench/run.sh -out bench/out/$$(git rev-parse --short HEAD).json

# Non-test Go lines outside the benchmark module and test fixtures: the
# number a simplicity change quotes before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
