package tess

// The early-cull ablation pair, the kernel/worker-pool/allocation benches
// `make bench` and EXPERIMENTS.md name, and the nil-recorder contract test.
// The ablations that need a forked implementation live beside their forks
// (internal/voronoi/ablation_test.go, internal/diy/ablation_test.go); all of
// them run with `go test -run '^$' -bench Ablation -benchtime 1x ./...`. The
// paper's tables and figures are regenerated by `tess <verb>` and
// `tessbench`, and the per-layer costs by the bench/ module; nothing here
// repeats them.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/voronoi"
)

// benchState caches the shared fixture (an evolved simulation snapshot)
// across benchmarks.
type benchState struct {
	once      sync.Once
	particles []diy.Particle // 8^3 particles after 40 steps
}

var bench benchState

const benchNg = 8
const benchL = float64(benchNg)

func (s *benchState) init(b *testing.B) {
	b.Helper()
	s.once.Do(func() {
		sim, err := nbody.New(nbody.DefaultConfig(benchNg))
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(40, nil)
		s.particles = ParticlesFromSim(sim)
	})
}

func benchConfig() Config {
	cfg := NewPeriodicConfig(benchL)
	cfg.GhostSize = 4
	return cfg
}

// BenchmarkAblationEarlyCull compares the pipeline with and without the
// kernel's proven cull exit (paper step 3c): with MinVolume set, a sweep
// stops once it proves its cell complete and below it; without, every
// sweep runs to the end and the cells are filtered afterwards.
func BenchmarkAblationEarlyCull_On(b *testing.B)  { benchEarlyCull(b, true) }
func BenchmarkAblationEarlyCull_Off(b *testing.B) { benchEarlyCull(b, false) }

func benchEarlyCull(b *testing.B, early bool) {
	bench.init(b)
	cfg := benchConfig()
	cfg.MinVolume = 1.0
	if !early {
		// Disable the early path by computing with no threshold and
		// filtering afterwards — the exact-only baseline.
		cfg.MinVolume = 0
	}
	for i := 0; i < b.N; i++ {
		out, err := core.RunTimed(cfg, bench.particles, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !early {
			kept := 0
			for _, v := range out.Volumes() {
				if v >= 1.0 {
					kept++
				}
			}
			_ = kept
		}
	}
}

// BenchmarkComputeCell measures the hot clipping kernel bare versus with
// disabled observability hooks wired around every cell (a nil *obs.Recorder,
// the state of any run that does not request tracing). The hook placement
// here is per-cell — far finer than the real per-rank spans in core — so
// the measured overhead is a conservative upper bound. The nil fast path
// must be free: TestNilRecorderHooksAreFree asserts 0 allocs from the hooks
// and alloc-identical kernels; the wall-clock delta is reported by this
// pair and recorded in EXPERIMENTS.md.
func BenchmarkComputeCell_Bare(b *testing.B)   { benchComputeCellObs(b, false) }
func BenchmarkComputeCell_NilObs(b *testing.B) { benchComputeCellObs(b, true) }

// benchCellFixture returns the shared kernel inputs for the obs-overhead
// pair: grid index, site arrays, and a reusable scratch.
func benchCellFixture(b *testing.B) (*voronoi.Index, []geom.Vec3, []int64, *voronoi.Scratch) {
	b.Helper()
	bench.init(b)
	pts := make([]geom.Vec3, len(bench.particles))
	ids := make([]int64, len(bench.particles))
	for i, p := range bench.particles {
		pts[i] = p.Pos
		ids[i] = p.ID
	}
	return voronoi.NewIndex(pts, ids, 0), pts, ids, voronoi.NewScratch()
}

func benchComputeCellObs(b *testing.B, hooked bool) {
	ix, pts, ids, scratch := benchCellFixture(b)
	var rec *obs.Recorder // nil: instrumentation disabled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pts)
		box := geom.Cube(pts[j], benchL/2)
		if hooked {
			sp := rec.Begin(0, obs.PhaseCompute)
			if _, err := voronoi.ComputeCellReused(ix, pts[j], ids[j], box, 0, scratch); err != nil {
				b.Fatal(err)
			}
			rec.End(0, sp)
			rec.Count(0, obs.CounterSites, 1)
		} else {
			if _, err := voronoi.ComputeCellReused(ix, pts[j], ids[j], box, 0, scratch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestNilRecorderHooksAreFree pins the "disabled observability is free"
// contract: the nil-recorder hook calls themselves perform zero
// allocations, and a cell computed through the hooked loop allocates
// exactly as much as the bare kernel.
func TestNilRecorderHooksAreFree(t *testing.T) {
	b := &testing.B{}
	bench.init(b)
	if b.Failed() {
		t.Fatal("fixture init failed")
	}
	pts := make([]geom.Vec3, len(bench.particles))
	ids := make([]int64, len(bench.particles))
	for i, p := range bench.particles {
		pts[i] = p.Pos
		ids[i] = p.ID
	}
	ix := voronoi.NewIndex(pts, ids, 0)
	scratch := voronoi.NewScratch()
	var rec *obs.Recorder

	hooksOnly := testing.AllocsPerRun(1000, func() {
		sp := rec.Begin(0, obs.PhaseCompute)
		rec.End(0, sp)
		rec.Count(0, obs.CounterSites, 1)
		rec.CountSend(0, 0, 1)
		rec.CountRecv(0, 0, 1)
		rec.CountCollective(0, 1)
	})
	if hooksOnly != 0 {
		t.Errorf("nil-recorder hooks allocate %g objects per call, want 0", hooksOnly)
	}

	j := 0
	kernel := func(hooked bool) float64 {
		return testing.AllocsPerRun(200, func() {
			box := geom.Cube(pts[j], benchL/2)
			if hooked {
				sp := rec.Begin(0, obs.PhaseCompute)
				if _, err := voronoi.ComputeCellReused(ix, pts[j], ids[j], box, 0, scratch); err != nil {
					t.Fatal(err)
				}
				rec.End(0, sp)
				rec.Count(0, obs.CounterSites, 1)
			} else {
				if _, err := voronoi.ComputeCellReused(ix, pts[j], ids[j], box, 0, scratch); err != nil {
					t.Fatal(err)
				}
			}
			j = (j + 1) % len(pts)
		})
	}
	// Warm the scratch so both passes run in steady state, then require
	// bit-equal allocation counts.
	kernel(false)
	bare := kernel(false)
	hooked := kernel(true)
	if hooked != bare {
		t.Errorf("hooked kernel allocates %g objects/cell, bare %g — disabled hooks must add 0", hooked, bare)
	}
}

// BenchmarkComputeParallelism measures the intra-rank worker pool on a
// 32^3-site block: one rank, Workers = 1 vs 4. On a multi-core host the
// 4-worker variant should run the compute phase at least ~2x faster; on a
// single-core host (GOMAXPROCS=1) the two are equal up to pool overhead.
// The compute-phase seconds are reported as a metric alongside the total.
func BenchmarkComputeParallelism_W1(b *testing.B) { benchParallelism(b, 1) }
func BenchmarkComputeParallelism_W4(b *testing.B) { benchParallelism(b, 4) }

func benchParallelism(b *testing.B, workers int) {
	const ng = 32
	const L = float64(ng)
	rng := rand.New(rand.NewSource(7))
	parts := make([]diy.Particle, 0, ng*ng*ng)
	id := int64(0)
	for z := 0; z < ng; z++ {
		for y := 0; y < ng; y++ {
			for x := 0; x < ng; x++ {
				parts = append(parts, diy.Particle{ID: id, Pos: geom.V(
					float64(x)+0.5+(rng.Float64()-0.5)*0.8,
					float64(y)+0.5+(rng.Float64()-0.5)*0.8,
					float64(z)+0.5+(rng.Float64()-0.5)*0.8)})
				id++
			}
		}
	}
	cfg := NewPeriodicConfig(L)
	cfg.Workers = workers
	b.ResetTimer()
	var compute float64
	for i := 0; i < b.N; i++ {
		cfg.Recorder = NewRecorder(1)
		out, err := core.RunTimed(cfg, parts, 1)
		if err != nil {
			b.Fatal(err)
		}
		compute = out.Obs.SlowestRank(PhaseGhostMerge, PhaseCompute).Seconds()
	}
	b.ReportMetric(compute, "compute-s/op")
}

// BenchmarkComputeCellAllocs isolates the allocation behavior of one cell
// computation: a fresh Scratch per cell versus one long-lived Scratch
// reused across cells. The warm scratch allocates nothing per cell
// (TestComputeCellReusedWarmZeroAllocs), against the fresh path's buffer
// growth.
func BenchmarkComputeCellAllocs_Fresh(b *testing.B)   { benchCellAllocs(b, false) }
func BenchmarkComputeCellAllocs_Scratch(b *testing.B) { benchCellAllocs(b, true) }

func benchCellAllocs(b *testing.B, reuse bool) {
	bench.init(b)
	pts := make([]geom.Vec3, len(bench.particles))
	ids := make([]int64, len(bench.particles))
	for i, p := range bench.particles {
		pts[i] = p.Pos
		ids[i] = p.ID
	}
	ix := voronoi.NewIndex(pts, ids, 0)
	scratch := voronoi.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pts)
		box := geom.Cube(pts[j], benchL/2)
		s := scratch
		if !reuse {
			s = voronoi.NewScratch()
		}
		if _, err := voronoi.ComputeCellReused(ix, pts[j], ids[j], box, 0, s); err != nil {
			b.Fatal(err)
		}
	}
}
