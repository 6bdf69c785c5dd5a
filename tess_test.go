package tess

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
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

func TestInSituOutputAndVoidPipeline(t *testing.T) {
	// End to end: simulate, tessellate in situ to disk, read back, find
	// voids.
	dir := t.TempDir()
	deck, err := ParseToolsConfig(strings.NewReader("[tess]\nevery = 0\nblocks = 2\nghost = 3\n")) // final step only
	if err != nil {
		t.Fatal(err)
	}
	simCfg := NewSimConfig(8)
	p, err := NewPipeline(deck, simCfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(simCfg, 6); err != nil {
		t.Fatal(err)
	}
	if len(p.Results) != 1 {
		t.Fatalf("snapshots = %d", len(p.Results))
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
