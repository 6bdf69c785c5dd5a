package tess

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/nbody"
)

func testParticles(seed int64, n int, L float64) []Particle {
	rng := rand.New(rand.NewSource(seed))
	h := L / float64(n)
	var pos []Vec3
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pos = append(pos, geom.V(
					(float64(x)+0.5)*h+(rng.Float64()-0.5)*0.9*h,
					(float64(y)+0.5)*h+(rng.Float64()-0.5)*0.9*h,
					(float64(z)+0.5)*h+(rng.Float64()-0.5)*0.9*h))
			}
		}
	}
	return ParticlesFromPositions(pos)
}

func TestTessellatePublicAPI(t *testing.T) {
	ps := testParticles(96, 8, 8)
	cfg := NewPeriodicConfig(8)
	cfg.GhostSize = 3
	out, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Counts.Kept != int64(len(ps)) {
		t.Fatalf("kept %d of %d", out.Counts.Kept, len(ps))
	}
	var vol float64
	for _, v := range out.Volumes() {
		vol += v
	}
	if math.Abs(vol-512) > 1e-6*512 {
		t.Errorf("total volume %v, want 512", vol)
	}
}

func TestNewBoundedConfig(t *testing.T) {
	// Bounded mode: interior cells survive, boundary cells are incomplete.
	ps := testParticles(97, 8, 8)
	cfg := NewBoundedConfig(geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8)))
	cfg.GhostSize = 3
	out, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Counts.Incomplete == 0 {
		t.Error("bounded run should have incomplete boundary cells")
	}
	if out.Counts.Kept == 0 {
		t.Error("bounded run kept nothing")
	}
	if out.Counts.Kept+out.Counts.Incomplete != int64(len(ps)) {
		t.Errorf("counts: %+v", out.Counts)
	}
}

func TestParticlesFromPositions(t *testing.T) {
	pos := []Vec3{{X: 1}, {Y: 2}}
	ps := ParticlesFromPositions(pos)
	if len(ps) != 2 || ps[0].ID != 0 || ps[1].ID != 1 || ps[1].Pos.Y != 2 {
		t.Errorf("ps = %+v", ps)
	}
}

func TestRunInSituValidation(t *testing.T) {
	base := InSituConfig{Sim: nbody.DefaultConfig(8), Tess: NewPeriodicConfig(8), Steps: 1, Blocks: 1}
	bad := base
	bad.Steps = 0
	if _, err := RunInSitu(bad, nil); err == nil {
		t.Error("zero steps accepted")
	}
	bad = base
	bad.Blocks = 0
	if _, err := RunInSitu(bad, nil); err == nil {
		t.Error("zero blocks accepted")
	}
	bad = base
	bad.Tess = NewPeriodicConfig(16)
	if _, err := RunInSitu(bad, nil); err == nil {
		t.Error("mismatched domain accepted")
	}
}

func TestRunInSituSnapshots(t *testing.T) {
	cfg := InSituConfig{
		Sim:    nbody.DefaultConfig(8),
		Tess:   NewPeriodicConfig(8),
		Steps:  10,
		Every:  5,
		Blocks: 2,
	}
	cfg.Tess.GhostSize = 3
	var hooked []int
	snaps, err := RunInSitu(cfg, func(s Snapshot) error { hooked = append(hooked, s.Step); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2 (steps 5 and 10)", len(snaps))
	}
	if snaps[0].Step != 5 || snaps[1].Step != 10 {
		t.Errorf("snapshot steps: %d, %d", snaps[0].Step, snaps[1].Step)
	}
	if len(hooked) != 2 {
		t.Errorf("hook ran %d times", len(hooked))
	}
	for _, s := range snaps {
		if s.Output.Counts.Kept != 512 {
			t.Errorf("step %d kept %d cells", s.Step, s.Output.Counts.Kept)
		}
		if s.TessTime <= 0 {
			t.Error("tess time not recorded")
		}
	}
}

// TestRunInSituSnapshotsOwnOutput pins what the Snapshot.Output doc
// promises: a snapshot is a deep copy, not the session's per-step loan.
// The first snapshot's meshes are copied inside the hook, while they are
// certainly valid, and must still equal that copy after two more steps
// have gone through the same session.
func TestRunInSituSnapshotsOwnOutput(t *testing.T) {
	cfg := InSituConfig{
		Sim:    nbody.DefaultConfig(8),
		Tess:   NewPeriodicConfig(8),
		Steps:  3,
		Every:  1,
		Blocks: 2,
	}
	cfg.Tess.GhostSize = 3
	var first *Output
	snaps, err := RunInSitu(cfg, func(s Snapshot) error {
		if first == nil {
			first = s.Output.Clone()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(snaps))
	}
	for rank, m := range snaps[0].Output.Meshes {
		if !reflect.DeepEqual(m, first.Meshes[rank]) {
			t.Errorf("rank %d: the first snapshot's mesh changed after later steps; Snapshot.Output aliases the session's loan", rank)
		}
	}
}

func TestRunInSituFinalStepAlways(t *testing.T) {
	cfg := InSituConfig{
		Sim:    nbody.DefaultConfig(8),
		Tess:   NewPeriodicConfig(8),
		Steps:  7,
		Every:  3,
		Blocks: 1,
	}
	cfg.Tess.GhostSize = 3
	snaps, err := RunInSitu(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Steps 3, 6, and the final 7.
	if len(snaps) != 3 || snaps[2].Step != 7 {
		steps := make([]int, len(snaps))
		for i, s := range snaps {
			steps[i] = s.Step
		}
		t.Fatalf("snapshot steps = %v, want [3 6 7]", steps)
	}
}

func TestInSituOutputAndVoidPipeline(t *testing.T) {
	// End to end: simulate, tessellate in situ to disk, read back, find
	// voids.
	dir := t.TempDir()
	cfg := InSituConfig{
		Sim:       nbody.DefaultConfig(8),
		Tess:      NewPeriodicConfig(8),
		Steps:     6,
		Every:     0, // final step only
		Blocks:    2,
		OutputDir: dir,
	}
	cfg.Tess.GhostSize = 3
	snaps, err := RunInSitu(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	path := filepath.Join(dir, "tess-step-0006.out")
	recs, err := ReadTessFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 512 {
		t.Fatalf("records = %d", len(recs))
	}
	vols := make([]float64, len(recs))
	for i, r := range recs {
		vols[i] = r.Volume
	}
	// Find voids above the mean volume.
	var mean float64
	for _, v := range vols {
		mean += v
	}
	mean /= float64(len(vols))
	comps := FindVoids(recs, mean)
	if len(comps) == 0 {
		t.Fatal("no voids found")
	}
	if comps[0].Functionals.Volume <= 0 {
		t.Error("void with nonpositive volume")
	}
}

func TestAutoTessellateFacade(t *testing.T) {
	ps := testParticles(118, 8, 8)
	cfg := NewPeriodicConfig(8)
	cfg.GhostSize = 0 // force estimation
	out, ghost, err := AutoTessellate(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ghost <= 0 {
		t.Errorf("ghost = %v", ghost)
	}
	if out.Counts.Incomplete != 0 || out.Counts.Kept != int64(len(ps)) {
		t.Errorf("counts: %+v", out.Counts)
	}
}

func TestEstimateAndMaxGhostFacade(t *testing.T) {
	cfg := NewPeriodicConfig(8)
	g, err := EstimateGhost(cfg, 512)
	if err != nil || math.Abs(g-4) > 1e-9 {
		t.Errorf("EstimateGhost = %v, %v", g, err)
	}
	if m := MaxGhostFor(cfg); m != 4 {
		t.Errorf("MaxGhostFor = %v, want 4", m)
	}
}

// MaxGhostFor is one ceiling for both decompositions at any block count —
// half the box, past the grid's block side (L/4 at 64 blocks) — and
// AutoTessellate clamps to it with every cell complete.
func TestMaxGhostForHonoursDecomposition(t *testing.T) {
	const L = 8.0
	ps := testParticles(5, 8, L)
	for _, kind := range []DecompKind{DecomposeRegular, DecomposeRCB} {
		cfg := NewPeriodicConfig(L, WithDecomposition(kind))
		if m := MaxGhostFor(cfg); m != L/2 {
			t.Errorf("decomposition %v: MaxGhostFor = %v, want %v", kind, m, L/2)
		}
		cfg.GhostSize = 100 // far past the ceiling: AutoTessellate clamps it
		for _, blocks := range []int{1, 8, 64} {
			out, g, err := AutoTessellate(cfg, ps, blocks)
			if err != nil {
				t.Fatal(err)
			}
			if g != L/2 || out.Counts.Incomplete != 0 {
				t.Errorf("decomposition %v, %d blocks: AutoTessellate used ghost %v (%d incomplete), want %v",
					kind, blocks, g, out.Counts.Incomplete, L/2)
			}
		}
	}
}

func TestFrameworkFacade(t *testing.T) {
	cfg, err := ParseToolsConfig(strings.NewReader("[halo]\nevery = 3\nmin_members = 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	simCfg := NewSimConfig(8)
	p, err := NewPipeline(cfg, simCfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(simCfg, 3); err != nil {
		t.Fatal(err)
	}
	if len(p.Results) != 1 {
		t.Errorf("results = %d", len(p.Results))
	}
	if len(KnownAnalyses()) < 5 {
		t.Errorf("known analyses: %v", KnownAnalyses())
	}
	srv := NewLiveServer()
	srv.Publish(AnalysisResult{Analysis: "halo", Step: 3})
	if srv == nil {
		t.Fatal("nil server")
	}
}

func TestTessellateWithInSituVoidLabels(t *testing.T) {
	ps := testParticles(119, 8, 8)
	cfg := NewPeriodicConfig(8)
	cfg.GhostSize = 3
	out, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if comps, _ := LabelVoids(out, 0); len(comps) == 0 {
		t.Error("no in situ void labels")
	}
}

func TestLabelVoidsInSitu(t *testing.T) {
	ps := testParticles(113, 8, 8)
	cfg := NewPeriodicConfig(8)
	cfg.GhostSize = 3
	out, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	comps, th := LabelVoids(out, 0)
	if len(comps) == 0 {
		t.Fatal("in situ labeling produced no components")
	}
	// Components hold only above-threshold cells and are volume-sorted.
	for i := 1; i < len(comps); i++ {
		if comps[i].Functionals.Volume > comps[i-1].Functionals.Volume {
			t.Fatal("components not sorted by volume")
		}
	}
	// A non-positive threshold means the mean cell volume: the cells tile
	// the 8^3 box, so that is 1.
	if math.Abs(th-1) > 1e-9 {
		t.Errorf("default threshold = %v, want the mean cell volume 1", th)
	}
}
