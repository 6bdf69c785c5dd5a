package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/diy"
	"repro/internal/faultinject"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/storage"
)

// evolvingSnapshots runs the built-in N-body simulation and captures the
// particle state after each of the first `count` steps — genuinely
// evolving inputs (small displacements step to step), the session's target
// workload.
func evolvingSnapshots(t testing.TB, ng, count int) [][]diy.Particle {
	t.Helper()
	sim, err := nbody.New(nbody.DefaultConfig(ng))
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]diy.Particle
	sim.Run(count, func(s *nbody.Simulation) {
		ps := make([]diy.Particle, len(s.Pos))
		for i, p := range s.Pos {
			ps[i] = diy.Particle{ID: int64(i), Pos: p}
		}
		snaps = append(snaps, ps)
	})
	if len(snaps) != count {
		t.Fatalf("captured %d snapshots, want %d", len(snaps), count)
	}
	return snaps
}

// The session's central contract: every Step — first or warm-started,
// any block count, any worker count — produces output bit-identical to a
// fresh one-shot Run over the same particles.
func TestSessionStepByteIdenticalToRun(t *testing.T) {
	const ng, steps = 8, 3
	snaps := evolvingSnapshots(t, ng, steps)
	for _, blocks := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("blocks=%d/workers=%d", blocks, workers), func(t *testing.T) {
				cfg := baseConfig(float64(ng))
				cfg.Workers = workers
				s, err := OpenSession(cfg, blocks)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for step, ps := range snaps {
					got, err := s.Step(ps)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					want, err := Run(cfg, ps, blocks)
					if err != nil {
						t.Fatalf("step %d reference: %v", step, err)
					}
					if got.Counts != want.Counts {
						t.Errorf("step %d: counts %+v, want %+v", step, got.Counts, want.Counts)
					}
					if got.Ghosts != want.Ghosts {
						t.Errorf("step %d: ghosts %d, want %d", step, got.Ghosts, want.Ghosts)
					}
					for r := range want.Meshes {
						if !reflect.DeepEqual(got.Meshes[r], want.Meshes[r]) {
							t.Errorf("step %d: block %d mesh differs from one-shot Run", step, r)
						}
					}
				}
				if s.Steps() != steps {
					t.Errorf("Steps() = %d, want %d", s.Steps(), steps)
				}
				warm, cold := s.WarmStats()
				n := int64(ng * ng * ng)
				if warm+cold != int64(steps)*n {
					t.Errorf("warm %d + cold %d != %d sites", warm, cold, int64(steps)*n)
				}
				if cold < n {
					t.Errorf("cold %d < %d: the whole first step must be cold", cold, n)
				}
				if warm == 0 {
					t.Error("no warm sites across small-displacement steps")
				}
			})
		}
	}
}

// Output.Clone must detach a step's loaned output: after further steps
// overwrite the session buffers, the clone still matches the reference.
func TestSessionOutputCloneSurvivesNextStep(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 2)
	cfg := baseConfig(float64(ng))
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Step(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	clone := first.Clone()
	if _, err := s.Step(snaps[1]); err != nil {
		t.Fatal(err)
	}
	ref, err := Run(cfg, snaps[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ref.Meshes {
		if !reflect.DeepEqual(clone.Meshes[r], ref.Meshes[r]) {
			t.Errorf("block %d: cloned output changed after the next step", r)
		}
	}
}

// After an injected crash the session must fail terminally: the crashing
// step returns a structured RankError, and every later step returns an
// immediate error (no hang) carrying the original abort cause.
func TestSessionTerminalAfterAbort(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 2)
	cfg := baseConfig(float64(ng))
	cfg.StallTimeout = 2 * time.Second // belt and braces: any hang becomes a dump
	// Checkpoints accumulate across steps: 1..4 in the first pass, 5..8 in
	// the second. Step 6 is the second pass's compute checkpoint.
	cfg.Faults = &faultinject.Plan{Seed: 7, CrashRank: 1, CrashStep: 6}
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Step(snaps[0]); err != nil {
		t.Fatalf("first step should succeed, got %v", err)
	}
	_, err = s.Step(snaps[1])
	var re *comm.RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("second step: err %v, want *RankError for rank 1", err)
	}
	if !errors.Is(err, comm.ErrWorldAborted) {
		t.Errorf("second step: err %v does not match ErrWorldAborted", err)
	}
	start := time.Now()
	_, err = s.Step(snaps[1])
	if err == nil {
		t.Fatal("step after abort succeeded")
	}
	if !strings.Contains(err.Error(), "terminally failed") {
		t.Errorf("post-abort error %v does not name the terminal state", err)
	}
	if !errors.Is(err, comm.ErrWorldAborted) {
		t.Errorf("post-abort error %v does not carry the abort cause", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("post-abort step took %v, want immediate return", elapsed)
	}
	if s.Steps() != 1 {
		t.Errorf("Steps() = %d, want 1 (only the first step completed)", s.Steps())
	}
}

// A closed session refuses further steps.
func TestSessionClosedRefusesStep(t *testing.T) {
	cfg := baseConfig(10)
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.Step(nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("step on closed session: err %v, want closed error", err)
	}
}

// Each step observes a fresh recorder epoch: per-step counters report that
// step alone (not a running total), and the session's warm/cold counters
// are populated.
func TestSessionRecorderResetsPerStep(t *testing.T) {
	const ng, blocks = 8, 2
	snaps := evolvingSnapshots(t, ng, 3)
	n := int64(ng * ng * ng)
	cfg := baseConfig(float64(ng))
	cfg.Recorder = obs.NewRecorder(blocks)
	s, err := OpenSession(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for step, ps := range snaps {
		out, err := s.Step(ps)
		if err != nil {
			t.Fatal(err)
		}
		if out.Obs == nil {
			t.Fatal("no obs snapshot despite recorder")
		}
		sum := func(name string) int64 {
			var total int64
			for _, v := range out.Obs.Counters[name] {
				total += v
			}
			return total
		}
		if got := sum(CounterSites); got != n {
			t.Errorf("step %d: %s = %d, want %d (per-step, not cumulative)", step, CounterSites, got, n)
		}
		if got := sum(CounterSitesWarm) + sum(CounterSitesCold); got != n {
			t.Errorf("step %d: warm+cold counters = %d, want %d", step, got, n)
		}
		if step == 0 && sum(CounterSitesWarm) != 0 {
			t.Errorf("first step reported %d warm sites", sum(CounterSitesWarm))
		}
		if step > 0 && sum(CounterSitesWarm) == 0 {
			t.Errorf("step %d reported no warm sites", step)
		}
	}
}

// WithOutputPath is the step's output destination; Config has none.
func TestSessionStepOutputPathOverridesConfig(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 1)
	dir := t.TempDir()
	cfg := baseConfig(float64(ng))
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	path := dir + "/step.out"
	out, err := s.Step(snaps[0], WithOutputPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if out.Timing.OutputBytes <= 0 {
		t.Errorf("OutputBytes = %d after a step with an output path", out.Timing.OutputBytes)
	}
}

// A rejected step is not terminal, so it must leave the source as it
// found it: the chunk holding the out-of-domain particle is released like
// any other, on the streaming path and on the path that stages the whole
// snapshot for an RCB build alike. Before the fix the chunk stayed pinned
// and every later pass over the source ran one chunk over its window.
func TestRejectedStepReleasesChunk(t *testing.T) {
	const L, chunks, window = 8.0, 8, 1
	ps := perturbedParticles(rand.New(rand.NewSource(17)), 8, L, 0.5)
	ps[len(ps)/2].Pos.X = L + 1 // in a middle chunk
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := storage.WriteSnapshot(path, ps, chunks); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []DecompKind{DecomposeRegular, DecomposeRCB} {
		src, err := storage.OpenFileSource(path, window)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(L)
		cfg.Decomposition = kind
		s, err := OpenSession(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepFrom(src); err == nil || !strings.Contains(err.Error(), "outside domain") {
			t.Fatalf("decomposition %d: step over an out-of-domain particle returned %v", kind, err)
		}
		for c := 0; c < src.Chunks(); c++ {
			if _, err := src.Chunk(c); err != nil {
				t.Fatal(err)
			}
			src.Release(c)
		}
		if peak := src.Stats().PeakResidentChunks; peak > window {
			t.Errorf("decomposition %d: PeakResidentChunks = %d after a rejected step, window is %d", kind, peak, window)
		}
		s.Close()
		src.Close()
	}
}

// A cold pass sizes its fragment arenas, mesh arrays and index up front
// rather than growing them by append, and holds no block's worth of cells:
// a 16^3 Run allocates 12.5 MB, against 19.1 MB with a per-worker cell pool
// under a serial mesh build and 71 MB with append-grown arenas; the bound
// sits between the first two. A warm Step then allocates a fixed handful
// of objects, whatever the site count: at 16^3 over 4 ranks of two
// workers, 90 to 92 (94 to 111 with the cell pool), most of them the
// workers' goroutines. A step now and then adds as many again, when the
// chunks its workers claim grow an arena, so the bound is on the fewest
// over three steps.
func TestColdPassAllocatesArenasOnce(t *testing.T) {
	snaps := evolvingSnapshots(t, 16, 5)
	cfg := Config{Domain: domainBox(16), Periodic: true, GhostSize: 4, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, snaps[2], 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 16 {
		t.Errorf("cold 4096-site Run allocated %.1f MB, want at most 16", mb)
	}

	cfg.Workers = 2
	s, err := OpenSession(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fewest := uint64(math.MaxUint64)
	for i, ps := range snaps {
		runtime.ReadMemStats(&before)
		if _, err := s.Step(ps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 2 {
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
	}
	if fewest > 100 {
		t.Errorf("warm steps allocated at least %d objects, want at most 100", fewest)
	}
}

// After a cold step each rank's merged arrays hold exactly its local and
// ghost particles, in capacity too: they grew once, to their final length,
// on grid and RCB blocks alike.
func TestColdStepMergesAtExactLength(t *testing.T) {
	ps := evolvingSnapshots(t, 16, 3)[2]
	for _, kind := range []DecompKind{DecomposeRegular, DecomposeRCB} {
		cfg := Config{Domain: domainBox(16), Periodic: true, GhostSize: 2, Decomposition: kind}
		s, err := OpenSession(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(ps); err != nil {
			t.Fatal(err)
		}
		for r := range s.ranks {
			rs := &s.ranks[r]
			n := len(s.parts[r]) + rs.bi.ghosts
			if len(rs.all) != n || cap(rs.all) != n || len(rs.ids) != n || cap(rs.ids) != n {
				t.Errorf("decomposition %d rank %d: merged arrays len %d/%d, cap %d/%d, want all %d",
					kind, r, len(rs.all), len(rs.ids), cap(rs.all), cap(rs.ids), n)
			}
		}
		s.Close()
	}
}
