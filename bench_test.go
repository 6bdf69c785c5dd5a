package tess

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// executes the computation that regenerates its experiment (at reduced
// scale — the full tables are printed by the cmd/ harnesses) and reports
// the experiment's headline quantity as a custom metric, so `go test
// -bench . -benchmem` doubles as a smoke-level regeneration of the whole
// evaluation.

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/voids"
	"repro/internal/voronoi"
)

// benchState caches the expensive fixtures (simulation snapshots and their
// serial tessellations) across benchmarks.
type benchState struct {
	once      sync.Once
	particles []diy.Particle // 8^3 particles after 40 steps
	serialRef []CellSummary
	records   []CellRecord // flattened cell records of the snapshot
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
		s.particles = make([]diy.Particle, len(sim.Pos))
		pts := make([]geom.Vec3, len(sim.Pos))
		ids := make([]int64, len(sim.Pos))
		for i, p := range sim.Pos {
			s.particles[i] = diy.Particle{ID: int64(i), Pos: p}
			pts[i] = p
			ids[i] = int64(i)
		}
		cells, err := voronoi.ComputePeriodic(pts, ids, benchL, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			s.serialRef = append(s.serialRef, CellSummary{
				ID: c.SiteID, Site: c.Site, Volume: c.Volume(), Area: c.Area(),
				Faces: len(c.Faces), Complete: c.Complete,
			})
		}
		out, err := Run(benchConfig(), s.particles, 8)
		if err != nil {
			b.Fatal(err)
		}
		for bi, m := range out.Meshes {
			s.records = append(s.records, voids.CellsFromMesh(m, bi)...)
		}
	})
}

func benchConfig() Config {
	cfg := NewPeriodicConfig(benchL)
	cfg.GhostSize = 4
	return cfg
}

// BenchmarkTableI_Accuracy regenerates one Table I cell: a parallel run
// (8 blocks, ghost 2) compared against the serial reference; the accuracy
// fraction is reported as a metric.
func BenchmarkTableI_Accuracy(b *testing.B) {
	bench.init(b)
	cfg := benchConfig()
	cfg.GhostSize = 2
	cfg.KeepIncomplete = true
	var acc float64
	for i := 0; i < b.N; i++ {
		out, err := Run(cfg, bench.particles, 8)
		if err != nil {
			b.Fatal(err)
		}
		rep := CompareAccuracy(bench.serialRef, out.Summaries(), 1e-6)
		acc = rep.Accuracy
	}
	b.ReportMetric(acc*100, "%accuracy")
}

// BenchmarkTableII covers the performance table's tessellation pipeline at
// two block counts, reporting the phase split as metrics.
func BenchmarkTableII_Tessellation_P1(b *testing.B) { benchTableII(b, 1) }
func BenchmarkTableII_Tessellation_P8(b *testing.B) { benchTableII(b, 8) }

func benchTableII(b *testing.B, blocks int) {
	bench.init(b)
	cfg := benchConfig()
	cfg.OutputPath = filepath.Join(b.TempDir(), "bench.out")
	var tm Timing
	for i := 0; i < b.N; i++ {
		out, err := core.RunTimed(cfg, bench.particles, blocks)
		if err != nil {
			b.Fatal(err)
		}
		tm = out.Timing
	}
	b.ReportMetric(tm.Exchange.Seconds()*1e3, "exch-ms")
	b.ReportMetric(tm.Compute.Seconds()*1e3, "voro-ms")
	b.ReportMetric(tm.Output.Seconds()*1e3, "out-ms")
	b.ReportMetric(float64(tm.OutputBytes)/1e6, "MB")
}

// BenchmarkFig7_Minkowski regenerates the plugin's analysis: threshold,
// connected components, Minkowski functionals.
func BenchmarkFig7_Minkowski(b *testing.B) {
	bench.init(b)
	th := meanVolume(bench.records)
	var comps int
	for i := 0; i < b.N; i++ {
		cs := voids.ConnectedComponents(voids.Threshold(bench.records, th))
		comps = len(cs)
	}
	b.ReportMetric(float64(comps), "components")
}

// BenchmarkFig8_VolumeHistogram regenerates the cell volume distribution
// and its moments.
func BenchmarkFig8_VolumeHistogram(b *testing.B) {
	bench.init(b)
	vols := make([]float64, len(bench.records))
	for i, r := range bench.records {
		vols[i] = r.Volume
	}
	var skew float64
	for i := 0; i < b.N; i++ {
		h := stats.NewHistogram(0.02, 2, 100)
		h.AddAll(vols)
		skew = stats.ComputeMoments(vols).Skewness
	}
	b.ReportMetric(skew, "skewness")
}

// BenchmarkFig9_ThresholdSweep regenerates the progressive threshold
// experiment.
func BenchmarkFig9_ThresholdSweep(b *testing.B) {
	bench.init(b)
	ths := []float64{0, 0.5, 0.75, 1.0}
	var last int
	for i := 0; i < b.N; i++ {
		rows := voids.ThresholdSweep(bench.records, ths)
		last = rows[len(rows)-1].Components
	}
	b.ReportMetric(float64(last), "components@1.0")
}

// BenchmarkFig10_StrongScaling measures the slowest-rank compute time at 8
// blocks against 1 block and reports the strong-scaling efficiency.
func BenchmarkFig10_StrongScaling(b *testing.B) {
	bench.init(b)
	cfg := benchConfig()
	var eff float64
	for i := 0; i < b.N; i++ {
		o1, err := core.RunTimed(cfg, bench.particles, 1)
		if err != nil {
			b.Fatal(err)
		}
		o8, err := core.RunTimed(cfg, bench.particles, 8)
		if err != nil {
			b.Fatal(err)
		}
		eff = o1.Timing.Compute.Seconds() / (8 * o8.Timing.Compute.Seconds())
	}
	b.ReportMetric(eff*100, "%strong-eff")
}

// BenchmarkFig10_WeakScaling holds work per rank constant (8^3@1 vs
// 16^3@8) and reports the weak-scaling efficiency.
func BenchmarkFig10_WeakScaling(b *testing.B) {
	bench.init(b)
	sim16, err := nbody.New(nbody.DefaultConfig(16))
	if err != nil {
		b.Fatal(err)
	}
	// Match the base fixture's evolution stage so per-cell cost is
	// comparable across the two scales.
	sim16.Run(40, nil)
	big := make([]diy.Particle, len(sim16.Pos))
	for i, p := range sim16.Pos {
		big[i] = diy.Particle{ID: int64(i), Pos: p}
	}
	cfgSmall := benchConfig()
	cfgBig := NewPeriodicConfig(16)
	cfgBig.GhostSize = 4
	var eff float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o1, err := core.RunTimed(cfgSmall, bench.particles, 1)
		if err != nil {
			b.Fatal(err)
		}
		o8, err := core.RunTimed(cfgBig, big, 8)
		if err != nil {
			b.Fatal(err)
		}
		eff = o1.Timing.Compute.Seconds() / o8.Timing.Compute.Seconds()
	}
	b.ReportMetric(eff*100, "%weak-eff")
}

// BenchmarkFig11_DeltaEvolution regenerates one time point of the density
// contrast study.
func BenchmarkFig11_DeltaEvolution(b *testing.B) {
	bench.init(b)
	var kurt float64
	for i := 0; i < b.N; i++ {
		out, err := Run(benchConfig(), bench.particles, 8)
		if err != nil {
			b.Fatal(err)
		}
		vols := out.Volumes()
		dens := make([]float64, len(vols))
		for j, v := range vols {
			dens[j] = 1 / v
		}
		kurt = stats.ComputeMoments(cosmo.DensityContrast(dens)).Kurtosis
	}
	b.ReportMetric(kurt, "kurtosis")
}

// BenchmarkDataModel_Encode covers the Sec. III-C2 storage path: building
// and serializing the block data model.
func BenchmarkDataModel_Encode(b *testing.B) {
	bench.init(b)
	out, err := Run(benchConfig(), bench.particles, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := out.Meshes[0]
	var bytesPer float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		bytesPer = float64(len(data)) / float64(m.NumCells())
	}
	b.ReportMetric(bytesPer, "B/particle")
}

// --- Ablations ---

// BenchmarkAblationEarlyCull compares the pipeline with and without the
// conservative circumscribing-sphere pre-cull (paper step 3c).
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

// BenchmarkAblationTargetedExchange compares the targeted neighbor exchange
// against the broadcast-to-all-neighbors baseline, reporting ghost volume.
func BenchmarkAblationTargetedExchange(b *testing.B)  { benchExchange(b, diy.ExchangeGhost) }
func BenchmarkAblationBroadcastExchange(b *testing.B) { benchExchange(b, diy.BroadcastExchange) }

func benchExchange(b *testing.B, fn func(*comm.World, *diy.Decomposition, int, []diy.Particle, float64) []diy.Particle) {
	bench.init(b)
	d, err := diy.Decompose(geom.NewBox(geom.V(0, 0, 0), geom.V(benchL, benchL, benchL)), 8, true)
	if err != nil {
		b.Fatal(err)
	}
	parts := diy.PartitionParticles(d, bench.particles)
	var ghosts int64
	for i := 0; i < b.N; i++ {
		w := comm.NewWorld(8)
		var mu sync.Mutex
		var total int64
		w.Run(func(rank int) {
			g := fn(w, d, rank, parts[rank], 2.0)
			mu.Lock()
			total += int64(len(g))
			mu.Unlock()
		})
		ghosts = total
	}
	b.ReportMetric(float64(ghosts), "ghosts")
}

// BenchmarkAblationSecurityRadius compares adaptive security-radius
// termination against fixed-shell clipping with a generous shell count.
func BenchmarkAblationSecurityRadius_Adaptive(b *testing.B) { benchSecurity(b, true) }
func BenchmarkAblationSecurityRadius_Fixed(b *testing.B)    { benchSecurity(b, false) }

func benchSecurity(b *testing.B, adaptive bool) {
	bench.init(b)
	pts := make([]geom.Vec3, len(bench.particles))
	ids := make([]int64, len(bench.particles))
	for i, p := range bench.particles {
		pts[i] = p.Pos
		ids[i] = p.ID
	}
	ix := voronoi.NewIndex(pts, ids, 0)
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(pts); j += 4 {
			box := geom.Cube(pts[j], benchL/2)
			var err error
			if adaptive {
				_, err = voronoi.ComputeCell(ix, pts[j], ids[j], box)
			} else {
				_, err = voronoi.ComputeCellFixedShells(ix, pts[j], ids[j], box, ix.MaxShell(pts[j]))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationNeighborSearch compares the grid-bucket shell traversal
// against brute-force distance sorting.
func BenchmarkAblationNeighborSearch_Grid(b *testing.B)  { benchSearch(b, true) }
func BenchmarkAblationNeighborSearch_Brute(b *testing.B) { benchSearch(b, false) }

func benchSearch(b *testing.B, grid bool) {
	bench.init(b)
	pts := make([]geom.Vec3, len(bench.particles))
	ids := make([]int64, len(bench.particles))
	for i, p := range bench.particles {
		pts[i] = p.Pos
		ids[i] = p.ID
	}
	ix := voronoi.NewIndex(pts, ids, 0)
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(pts); j += 8 {
			box := geom.Cube(pts[j], benchL/2)
			var err error
			if grid {
				_, err = voronoi.ComputeCell(ix, pts[j], ids[j], box)
			} else {
				_, err = voronoi.ComputeCellBrute(pts, ids, pts[j], ids[j], box)
			}
			if err != nil {
				b.Fatal(err)
			}
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
	ctr := rec.RegisterCounter("cells")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pts)
		box := geom.Cube(pts[j], benchL/2)
		if hooked {
			sp := rec.Begin(0, obs.PhaseCompute)
			if _, err := voronoi.ComputeCellScratch(ix, pts[j], ids[j], box, scratch); err != nil {
				b.Fatal(err)
			}
			rec.End(0, sp)
			rec.Count(0, ctr, 1)
		} else {
			if _, err := voronoi.ComputeCellScratch(ix, pts[j], ids[j], box, scratch); err != nil {
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
	ctr := rec.RegisterCounter("cells")

	hooksOnly := testing.AllocsPerRun(1000, func() {
		sp := rec.Begin(0, obs.PhaseCompute)
		rec.End(0, sp)
		rec.Count(0, ctr, 1)
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
				if _, err := voronoi.ComputeCellScratch(ix, pts[j], ids[j], box, scratch); err != nil {
					t.Fatal(err)
				}
				rec.End(0, sp)
				rec.Count(0, ctr, 1)
			} else {
				if _, err := voronoi.ComputeCellScratch(ix, pts[j], ids[j], box, scratch); err != nil {
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

func meanVolume(recs []CellRecord) float64 {
	var sum float64
	for _, r := range recs {
		sum += r.Volume
	}
	return sum / float64(len(recs))
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
		out, err := core.RunTimed(cfg, parts, 1)
		if err != nil {
			b.Fatal(err)
		}
		compute = out.Timing.Compute.Seconds()
	}
	b.ReportMetric(compute, "compute-s/op")
}

// BenchmarkComputeCellAllocs isolates the allocation behavior of one cell
// computation: a fresh Scratch per cell (the ComputeCell path) versus one
// long-lived Scratch reused across cells. The scratch-reuse variant must
// allocate at least 5x fewer objects per cell (it performs only the final
// detach copies, ~3 allocs, against the fresh path's buffer growth).
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
		var err error
		if reuse {
			_, err = voronoi.ComputeCellScratch(ix, pts[j], ids[j], box, scratch)
		} else {
			_, err = voronoi.ComputeCell(ix, pts[j], ids[j], box)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
