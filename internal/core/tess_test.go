package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/voronoi"
)

func perturbedParticles(rng *rand.Rand, n int, L, amp float64) []diy.Particle {
	h := L / float64(n)
	var ps []diy.Particle
	id := int64(0)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				ps = append(ps, diy.Particle{
					ID: id,
					Pos: geom.V(
						(float64(x)+0.5)*h+(rng.Float64()-0.5)*amp*h,
						(float64(y)+0.5)*h+(rng.Float64()-0.5)*amp*h,
						(float64(z)+0.5)*h+(rng.Float64()-0.5)*amp*h),
				})
				id++
			}
		}
	}
	return ps
}

func domainBox(L float64) geom.Box {
	return geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L))
}

func baseConfig(L float64) Config {
	return Config{
		Domain:    domainBox(L),
		Periodic:  true,
		GhostSize: 3,
	}
}

// serialReference computes the exact periodic tessellation summaries.
func serialReference(t testing.TB, ps []diy.Particle, L float64) []CellSummary {
	t.Helper()
	pts := make([]geom.Vec3, len(ps))
	ids := make([]int64, len(ps))
	for i, p := range ps {
		pts[i] = p.Pos
		ids[i] = p.ID
	}
	cells, err := voronoi.ComputePeriodic(pts, ids, L, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]CellSummary, len(cells))
	for i, c := range cells {
		out[i] = CellSummary{
			ID: c.SiteID, Site: c.Site, Volume: c.Volume(), Area: c.Area(),
			Faces: len(c.Faces), Complete: c.Complete,
		}
	}
	return out
}

func TestRunPartitionOfUnity(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.8)
	for _, blocks := range []int{1, 2, 4, 8} {
		out, err := Run(baseConfig(L), ps, blocks)
		if err != nil {
			t.Fatalf("blocks=%d: %v", blocks, err)
		}
		if out.Counts.Kept != int64(len(ps)) {
			t.Fatalf("blocks=%d: kept %d of %d cells (incomplete %d)",
				blocks, out.Counts.Kept, len(ps), out.Counts.Incomplete)
		}
		var vol float64
		for _, v := range out.Volumes() {
			vol += v
		}
		if math.Abs(vol-L*L*L) > 1e-6*L*L*L {
			t.Fatalf("blocks=%d: total volume %v, want %v", blocks, vol, L*L*L)
		}
	}
}

func TestParallelMatchesSerialWithAdequateGhost(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.9)
	ref := serialReference(t, ps, L)
	for _, blocks := range []int{2, 4, 8} {
		out, err := Run(baseConfig(L), ps, blocks)
		if err != nil {
			t.Fatal(err)
		}
		rep := CompareAccuracy(ref, out.Summaries(), 1e-6)
		if rep.Accuracy < 1.0 {
			t.Fatalf("blocks=%d: accuracy %.4f (%d/%d matching)",
				blocks, rep.Accuracy, rep.Matching, rep.ReferenceCells)
		}
	}
}

func TestAccuracyDegradesWithoutGhost(t *testing.T) {
	// The Table I effect: ghost size 0 produces wrong boundary cells, and
	// more blocks produce more errors.
	rng := rand.New(rand.NewSource(76))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.9)
	ref := serialReference(t, ps, L)
	cfg := baseConfig(L)
	cfg.GhostSize = 0
	cfg.KeepIncomplete = true
	acc := make(map[int]float64)
	for _, blocks := range []int{2, 8} {
		out, err := Run(cfg, ps, blocks)
		if err != nil {
			t.Fatal(err)
		}
		rep := CompareAccuracy(ref, out.Summaries(), 1e-6)
		acc[blocks] = rep.Accuracy
		if rep.Accuracy >= 1.0 {
			t.Fatalf("blocks=%d: ghost 0 should not be fully accurate", blocks)
		}
	}
	if acc[8] > acc[2] {
		t.Errorf("more blocks should not improve ghost-0 accuracy: %v", acc)
	}
}

func TestIncompleteCellsDeletedByDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.9)
	cfg := baseConfig(L)
	cfg.GhostSize = 0.5 // too small: boundary cells cannot be proven
	out, err := Run(cfg, ps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Counts.Incomplete == 0 {
		t.Error("tiny ghost produced no incomplete cells")
	}
	if out.Counts.Kept+out.Counts.Incomplete != out.Counts.Sites {
		t.Errorf("counts don't add up: %+v", out.Counts)
	}
}

func TestVolumeThresholdCulling(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.9)
	cfg := baseConfig(L)
	cfg.MinVolume = 1.0 // the mean cell volume; culls roughly half
	out, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Counts.CulledEarly+out.Counts.CulledExact == 0 {
		t.Error("threshold culled nothing")
	}
	if out.Counts.Kept == 0 {
		t.Error("threshold culled everything")
	}
	for _, v := range out.Volumes() {
		if v < cfg.MinVolume {
			t.Fatalf("kept cell with volume %v below threshold", v)
		}
	}
	// Early culling must agree with exact culling: re-run without the
	// early path via a config that disables MinVolume and apply the cut
	// manually.
	ref, err := Run(baseConfig(L), ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantKept := 0
	for _, v := range ref.Volumes() {
		if v >= cfg.MinVolume {
			wantKept++
		}
	}
	if int(out.Counts.Kept) != wantKept {
		t.Errorf("kept %d cells, exact filter keeps %d", out.Counts.Kept, wantKept)
	}
}

func TestMaxVolumeCut(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	const L = 6.0
	ps := perturbedParticles(rng, 6, L, 0.9)
	cfg := baseConfig(L)
	cfg.MaxVolume = 1.0
	out, err := Run(cfg, ps, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Volumes() {
		if v > cfg.MaxVolume {
			t.Fatalf("kept cell with volume %v above MaxVolume", v)
		}
	}
}

func TestHullPassAgreesWithClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	const L = 6.0
	ps := perturbedParticles(rng, 6, L, 0.8)
	cfgHull := baseConfig(L)
	cfgHull.HullPass = true
	cfgHull.MinVolume = 0.7
	outHull, err := Run(cfgHull, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfgClip := cfgHull
	cfgClip.HullPass = false
	outClip, err := Run(cfgClip, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if outHull.Counts.Kept != outClip.Counts.Kept {
		t.Errorf("hull pass changed survivor count: %d vs %d",
			outHull.Counts.Kept, outClip.Counts.Kept)
	}
}

func TestOutputFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const L = 6.0
	ps := perturbedParticles(rng, 6, L, 0.8)
	dir := t.TempDir()
	path := filepath.Join(dir, "tess.out")
	out, err := Run(baseConfig(L), ps, 4, WithOutputPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if out.Timing.OutputBytes <= 0 {
		t.Error("no output bytes recorded")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != out.Timing.OutputBytes {
		t.Errorf("file size %d, recorded %d", st.Size(), out.Timing.OutputBytes)
	}
	blocks, err := diy.ReadAllBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("file has %d blocks", len(blocks))
	}
	total := 0
	for bi, data := range blocks {
		m, err := meshio.DecodeBlockMesh(data)
		if err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		total += m.NumCells()
		// Written mesh matches the in-memory mesh.
		if m.NumCells() != out.Meshes[bi].NumCells() {
			t.Fatalf("block %d: %d cells on disk, %d in memory", bi, m.NumCells(), out.Meshes[bi].NumCells())
		}
	}
	if total != len(ps) {
		t.Errorf("file holds %d cells, want %d", total, len(ps))
	}
}

func TestRunRejectsOutOfDomainParticles(t *testing.T) {
	cfg := baseConfig(4)
	ps := []diy.Particle{{ID: 0, Pos: geom.V(10, 1, 1)}}
	if _, err := Run(cfg, ps, 2); err == nil {
		t.Error("out-of-domain particle accepted")
	}
}

func TestEachCellOwnedByExactlyOneBlock(t *testing.T) {
	// The paper's duplicate-resolution invariant (step 3a): across all
	// blocks, each particle ID appears exactly once.
	rng := rand.New(rand.NewSource(82))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.9)
	out, err := Run(baseConfig(L), ps, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for _, s := range out.Summaries() {
		seen[s.ID]++
	}
	if len(seen) != len(ps) {
		t.Fatalf("%d unique cells, want %d", len(seen), len(ps))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("particle %d owned by %d blocks", id, n)
		}
	}
}

func TestTimingsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const L = 6.0
	ps := perturbedParticles(rng, 6, L, 0.8)
	out, err := Run(baseConfig(L), ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Timing.Compute <= 0 {
		t.Error("compute time not recorded")
	}
	if out.Timing.Total < out.Timing.Compute {
		t.Error("total < compute")
	}
	if out.Ghosts == 0 {
		t.Error("no ghosts recorded")
	}
}

func TestCompareAccuracyEdgeCases(t *testing.T) {
	rep := CompareAccuracy(nil, nil, 0)
	if rep.Accuracy != 0 || rep.Matching != 0 {
		t.Errorf("empty compare: %+v", rep)
	}
	ref := []CellSummary{{ID: 1, Volume: 2, Faces: 6}}
	par := []CellSummary{{ID: 1, Volume: 2, Faces: 6}, {ID: 9, Volume: 1, Faces: 4}}
	rep = CompareAccuracy(ref, par, 1e-9)
	if rep.Matching != 1 || rep.Accuracy != 1 {
		t.Errorf("match: %+v", rep)
	}
	// Volume off by more than tolerance: no match.
	par[0].Volume = 2.1
	rep = CompareAccuracy(ref, par, 1e-9)
	if rep.Matching != 0 {
		t.Errorf("tolerant match: %+v", rep)
	}
}

// runBothSchedulers runs cfg through Run and RunTimed, a recorder on each,
// and requires what one shared rank body implies: every block's mesh,
// the global counts, and every deterministic per-rank counter are
// equal whether the ranks compute together or take turns.
func runBothSchedulers(t *testing.T, cfg Config, ps []diy.Particle, blocks int) (*Output, *Output) {
	t.Helper()
	cfg.Recorder = obs.NewRecorder(blocks)
	a, err := Run(cfg, ps, blocks)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = obs.NewRecorder(blocks)
	b, err := RunTimed(cfg, ps, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("counts differ: Run %+v, RunTimed %+v", a.Counts, b.Counts)
	}
	for rank := range a.Meshes {
		if !reflect.DeepEqual(a.Meshes[rank], b.Meshes[rank]) {
			t.Errorf("block %d: mesh differs between Run and RunTimed", rank)
		}
	}
	for _, name := range []string{
		CounterGhosts, CounterCellsKept, CounterSites, CounterKernelShells,
		CounterKernelGathered, CounterKernelSorted, CounterKernelTested, CounterKernelCut,
		CounterKernelCulled,
	} {
		ca, cb := a.Obs.Counters[name], b.Obs.Counters[name]
		if len(ca) != blocks || !reflect.DeepEqual(ca, cb) {
			t.Errorf("counter %s: Run %v, RunTimed %v", name, ca, cb)
		}
	}
	return a, b
}

func TestRunTimedMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.9)
	cfg := baseConfig(L)
	cfg.MinVolume = 0.5
	_, b := runBothSchedulers(t, cfg, ps, 4)
	if tm := b.Timing; tm.Compute <= 0 || tm.Total != tm.Exchange+tm.Compute+tm.Output {
		t.Errorf("timings not populated: %+v", tm)
	}
}

func TestRunTimedOutputFile(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const L = 6.0
	ps := perturbedParticles(rng, 6, L, 0.8)
	path := filepath.Join(t.TempDir(), "timed.out")
	out, err := RunTimed(baseConfig(L), ps, 2, WithOutputPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if out.Timing.OutputBytes <= 0 {
		t.Error("no output bytes")
	}
	blocks, err := diy.ReadAllBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Errorf("blocks on disk = %d", len(blocks))
	}
}

func TestEstimateGhost(t *testing.T) {
	cfg := baseConfig(8)
	g, err := EstimateGhost(cfg, 512)
	if err != nil {
		t.Fatal(err)
	}
	// 512 particles in an 8^3 box: spacing 1, four spacings -> ghost 4.
	if math.Abs(g-4) > 1e-9 {
		t.Errorf("ghost = %v, want 4", g)
	}
	// 64 particles: spacing 2, clamped from 8 to half the box.
	g, err = EstimateGhost(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-4) > 1e-9 {
		t.Errorf("clamped ghost = %v, want 4", g)
	}
	if _, err := EstimateGhost(cfg, 0); err == nil {
		t.Error("zero particles accepted")
	}
}

func TestAutoRunFindsSufficientGhost(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.9)
	cfg := baseConfig(L)
	cfg.GhostSize = 0.5 // deliberately too small: AutoRun must grow it
	out, ghost, err := AutoRun(cfg, ps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Counts.Incomplete != 0 {
		t.Fatalf("AutoRun left %d incomplete cells at ghost %g", out.Counts.Incomplete, ghost)
	}
	if ghost <= 0.5 {
		t.Errorf("ghost did not grow: %v", ghost)
	}
	if out.Counts.Kept != int64(len(ps)) {
		t.Errorf("kept %d of %d", out.Counts.Kept, len(ps))
	}
}

func TestAutoRunDefaultsGhost(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.8)
	cfg := baseConfig(L)
	cfg.GhostSize = 0
	out, ghost, err := AutoRun(cfg, ps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ghost < 3 || ghost > 4.001 {
		t.Errorf("estimated ghost = %v", ghost)
	}
	if out.Counts.Incomplete != 0 {
		t.Errorf("incomplete cells with estimated ghost: %d", out.Counts.Incomplete)
	}
}

func TestAutoRunStopsAtMaxGhost(t *testing.T) {
	// A lone particle cluster in a huge empty box: cells can never be
	// proven complete; AutoRun must terminate at the max ghost and report
	// the incompleteness instead of looping.
	const L = 16.0
	var ps []diy.Particle
	rng := rand.New(rand.NewSource(112))
	for i := 0; i < 20; i++ {
		ps = append(ps, diy.Particle{ID: int64(i), Pos: geom.V(
			8+rng.Float64(), 8+rng.Float64(), 8+rng.Float64())})
	}
	cfg := baseConfig(L)
	cfg.GhostSize = 1
	out, ghost, err := AutoRun(cfg, ps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ghost-8) > 1e-9 { // half the box
		t.Errorf("final ghost = %v, want the max 8", ghost)
	}
	_ = out
}

// The O(V) bounds in front of the early cull's pairwise scan must decide
// exactly as the scan alone does, for every cell and any cutoff — at, just
// above and well to either side of the cell's own diameter.
func TestDiameterBelowMatchesPairwiseScan(t *testing.T) {
	ps := clusteredParticles(t, 1500, 12, 7)
	pts := make([]geom.Vec3, len(ps))
	ids := make([]int64, len(ps))
	for i, p := range ps {
		pts[i], ids[i] = p.Pos, p.ID
	}
	cells, err := voronoi.ComputePeriodic(pts, ids, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		d2 := cellDiameter2(c)
		for _, cut2 := range []float64{0.3, d2, math.Nextafter(d2, math.Inf(1)), 0.5 * d2, 1.5 * d2, 3.9 * d2, 4.1 * d2} {
			if got, want := diameterBelow(c, cut2), d2 < cut2; got != want {
				t.Fatalf("cell %d (diameter^2 %v): diameterBelow(%v) = %v, pairwise scan says %v", c.SiteID, d2, cut2, got, want)
			}
		}
	}
}

// One Allreduce of stepTotals gives what the four scalar timing reductions
// and the two count reductions gave (Total is summed after the reduction).
func TestStepTotalsMatchScalarReductions(t *testing.T) {
	const ranks = 4
	w := comm.NewWorld(ranks)
	in := make([]stepTotals, ranks)
	for r := range in {
		d := func(k int) time.Duration { return time.Duration((r*7+k*13)%11) * 100 * time.Nanosecond }
		in[r] = stepTotals{
			Timing: Timing{Exchange: d(1), Compute: d(2), Output: d(3), OutputBytes: int64(1000 * r)},
			Counts: CellCounts{Sites: int64(10 + r), Incomplete: int64(r), CulledEarly: 1, CulledExact: int64(2 * r), Kept: 5},
			Ghosts: int64(300 - r),
		}
	}
	maxDuration := func(a, b time.Duration) time.Duration { return max(a, b) }
	sumInt64 := func(a, b int64) int64 { return a + b }
	var got, want [ranks]stepTotals
	if err := w.Run(func(rank int) {
		v := in[rank]
		got[rank] = comm.Allreduce(w, rank, v, stepTotals.merge)
		want[rank] = stepTotals{
			Timing: Timing{
				Exchange:    comm.Allreduce(w, rank, v.Timing.Exchange, maxDuration),
				Compute:     comm.Allreduce(w, rank, v.Timing.Compute, maxDuration),
				Output:      comm.Allreduce(w, rank, v.Timing.Output, maxDuration),
				OutputBytes: comm.Allreduce(w, rank, v.Timing.OutputBytes, sumInt64),
			},
			Counts: comm.Allreduce(w, rank, v.Counts, CellCounts.add),
			Ghosts: comm.Allreduce(w, rank, v.Ghosts, sumInt64),
		}
	}); err != nil {
		t.Fatal(err)
	}
	for r := range got {
		if got[r] != want[r] {
			t.Errorf("rank %d: one reduction gave %+v, scalar reductions %+v", r, got[r], want[r])
		}
	}
}
