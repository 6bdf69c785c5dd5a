package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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

// serialReference computes the exact periodic tessellation summaries
// without the pipeline: every particle's periodic images within L/2 of the
// box are indexed beside it, and each cell is clipped from the cube of
// side L around its site. No decomposition, exchange or ghost merge is
// involved, so the pipeline's periodic images are checked against a
// second construction.
func serialReference(t testing.TB, ps []diy.Particle, L float64) []CellSummary {
	t.Helper()
	var pts []geom.Vec3
	var ids []int64
	for _, p := range ps {
		pts, ids = append(pts, p.Pos), append(ids, p.ID)
	}
	margin := domainBox(L).Expand(L / 2)
	for _, p := range ps {
		for sx := -1.0; sx <= 1; sx++ {
			for sy := -1.0; sy <= 1; sy++ {
				for sz := -1.0; sz <= 1; sz++ {
					img := p.Pos.Add(geom.V(sx*L, sy*L, sz*L))
					if (sx != 0 || sy != 0 || sz != 0) && margin.Contains(img) {
						pts, ids = append(pts, img), append(ids, p.ID)
					}
				}
			}
		}
	}
	ix := voronoi.NewIndex(pts, ids, 0)
	s := voronoi.NewScratch()
	out := make([]CellSummary, len(ps))
	for i, p := range ps {
		c, err := voronoi.ComputeCellReused(ix, p.Pos, p.ID, geom.Cube(p.Pos, L/2), 0, s)
		if err != nil {
			t.Fatal(err)
		}
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

// Every cell of a run with an adequate ghost matches the serial
// reference, and so does the one-block run at the ghost ceiling that
// tess accuracy takes as Table I's serial tessellation.
func TestParallelMatchesSerialWithAdequateGhost(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.9)
	ref := serialReference(t, ps, L)
	ceiling := baseConfig(L)
	ceiling.GhostSize, ceiling.KeepIncomplete = GhostCeiling(ceiling), true
	for _, run := range []struct {
		cfg    Config
		blocks int
	}{{baseConfig(L), 2}, {baseConfig(L), 4}, {baseConfig(L), 8}, {ceiling, 1}} {
		out, err := Run(run.cfg, ps, run.blocks)
		if err != nil {
			t.Fatal(err)
		}
		rep := CompareAccuracy(ref, out.Summaries(), 1e-6)
		if rep.Matching != rep.ReferenceCells || rep.ParallelCells != rep.ReferenceCells {
			t.Fatalf("blocks=%d ghost=%g: %d of %d reference cells matching, %d parallel cells",
				run.blocks, run.cfg.GhostSize, rep.Matching, rep.ReferenceCells, rep.ParallelCells)
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
	if out.Bytes <= 0 {
		t.Error("no output bytes recorded")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != out.Bytes {
		t.Errorf("file size %d, recorded %d", st.Size(), out.Bytes)
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
	cfg := baseConfig(L)
	cfg.Recorder = obs.NewRecorder(4)
	out, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []obs.Phase{obs.PhaseExchange, obs.PhaseGhostMerge, obs.PhaseCompute, obs.PhaseOutput} {
		if out.Obs.SlowestRank(ph) <= 0 {
			t.Errorf("%v time not recorded", ph)
		}
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

// runBothSchedulers runs cfg through Run and RunTimed on the same
// particles and output path, a recorder on each, and requires what one
// shared rank body implies: every block's mesh, the global counts, every
// message and byte matrix, every collective and every counter are equal
// whether the ranks compute together or take turns. The turns are
// barriers, which send nothing; tessbench reads its communication table
// off the timed pass on this premise.
func runBothSchedulers(t *testing.T, cfg Config, ps []diy.Particle, blocks int) (*Output, *Output) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mesh.out")
	cfg.Recorder = obs.NewRecorder(blocks)
	a, err := Run(cfg, ps, blocks, WithOutputPath(path))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = obs.NewRecorder(blocks)
	b, err := RunTimed(cfg, ps, blocks, WithOutputPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts || a.Bytes != b.Bytes {
		t.Errorf("counts differ: Run %+v (%d B), RunTimed %+v (%d B)", a.Counts, a.Bytes, b.Counts, b.Bytes)
	}
	for rank := range a.Meshes {
		if !reflect.DeepEqual(a.Meshes[rank], b.Meshes[rank]) {
			t.Errorf("block %d: mesh differs between Run and RunTimed", rank)
		}
	}
	sa, sb := a.Obs, b.Obs
	if sa.TotalSentMsgs == 0 {
		t.Error("Run recorded no messages")
	}
	for _, m := range []struct {
		name       string
		run, timed [][]int64
	}{
		{"SendMsgs", sa.SendMsgs, sb.SendMsgs},
		{"SendBytes", sa.SendBytes, sb.SendBytes},
		{"RecvMsgs", sa.RecvMsgs, sb.RecvMsgs},
		{"RecvBytes", sa.RecvBytes, sb.RecvBytes},
	} {
		if !reflect.DeepEqual(m.run, m.timed) {
			t.Errorf("%s: Run %v, RunTimed %v", m.name, m.run, m.timed)
		}
	}
	for rank := range sa.PerRank {
		ra, rb := sa.PerRank[rank], sb.PerRank[rank]
		if ra.Collectives != rb.Collectives || ra.CollectiveBytes != rb.CollectiveBytes {
			t.Errorf("rank %d collectives: Run %d (%d B), RunTimed %d (%d B)",
				rank, ra.Collectives, ra.CollectiveBytes, rb.Collectives, rb.CollectiveBytes)
		}
	}
	for _, name := range sa.CounterNames {
		if ca, cb := sa.Counters[name], sb.Counters[name]; len(ca) != blocks || !reflect.DeepEqual(ca, cb) {
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
	if voro := b.Obs.SlowestRank(obs.PhaseGhostMerge, obs.PhaseCompute); voro <= 0 {
		t.Errorf("RunTimed recorded no Voronoi time: %v", voro)
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
	if out.Bytes <= 0 {
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

// A step's only collectives are its write's: the ranks' totals are summed
// after they join, so a step with no output path records none, and one
// with a path exactly what diy.CollectiveWrite records run alone on a
// world of the same size.
func TestStepCollectivesAreTheWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const L, blocks = 6.0, 4
	ps := perturbedParticles(rng, 6, L, 0.8)
	dir := t.TempDir()

	w := comm.NewWorld(blocks)
	rec := obs.NewRecorder(blocks)
	w.SetRecorder(rec)
	if err := w.Run(func(rank int) {
		if _, err := diy.CollectiveWrite(w, rank, filepath.Join(dir, "alone.out"), []byte{byte(rank)}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	write := rec.Snapshot()

	cfg := baseConfig(L)
	cfg.Recorder = obs.NewRecorder(blocks)
	s, err := OpenSession(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, path := range []string{"", filepath.Join(dir, "step.out")} {
		out, err := s.Step(ps, WithOutputPath(path))
		if err != nil {
			t.Fatal(err)
		}
		for rank, m := range out.Obs.PerRank {
			var want int64
			if path != "" {
				want = write.PerRank[rank].Collectives
				if want == 0 {
					t.Fatalf("rank %d: CollectiveWrite alone recorded no collectives", rank)
				}
			}
			if m.Collectives != want {
				t.Errorf("output path %q: rank %d recorded %d collectives, want %d", path, rank, m.Collectives, want)
			}
		}
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
