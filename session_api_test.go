package tess

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cosmo"
	"repro/internal/geom"
	"repro/internal/nbody"
)

func TestConfigOptions(t *testing.T) {
	rec := NewRecorder(4)
	plan := &FaultPlan{Seed: 1}
	cfg := NewPeriodicConfig(8,
		WithWorkers(3),
		WithGhostSize(3),
		WithStallTimeout(5*time.Second),
		WithRecorder(rec),
		WithFaults(plan),
	)
	if cfg.Workers != 3 {
		t.Errorf("Workers = %d", cfg.Workers)
	}
	if cfg.GhostSize != 3 {
		t.Errorf("GhostSize = %v", cfg.GhostSize)
	}
	if cfg.StallTimeout != 5*time.Second {
		t.Errorf("StallTimeout = %v", cfg.StallTimeout)
	}
	if cfg.Recorder != rec || cfg.Faults != plan {
		t.Error("pointer options not applied")
	}
	if !cfg.Periodic {
		t.Error("defaults lost when options applied")
	}
	// The Quickhull pass is opt-in: neither public constructor sets it.
	if cfg.HullPass || NewBoundedConfig(cfg.Domain).HullPass {
		t.Error("HullPass is on by default")
	}
	// Later options win over earlier ones.
	cfg = NewPeriodicConfig(8, WithGhostSize(2), WithGhostSize(3))
	if cfg.GhostSize != 3 {
		t.Errorf("last option should win, GhostSize = %v", cfg.GhostSize)
	}
}

// The public Session must reproduce Run byte-for-byte across repeated
// warm steps.
func TestPublicSessionMatchesRun(t *testing.T) {
	cfg := NewPeriodicConfig(8, WithGhostSize(3))
	sess, err := Open(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, seed := range []int64{96, 97, 98} {
		ps := testParticles(seed, 8, 8)
		got, err := sess.Step(ps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(cfg, ps, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counts != want.Counts {
			t.Errorf("seed %d: counts %+v, want %+v", seed, got.Counts, want.Counts)
		}
		for r := range got.Meshes {
			if !reflect.DeepEqual(got.Meshes[r], want.Meshes[r]) {
				t.Errorf("seed %d: block %d differs from Run", seed, r)
			}
		}
	}
	if sess.Steps() != 3 {
		t.Errorf("Steps() = %d", sess.Steps())
	}
	warm, cold := sess.WarmStats()
	if warm+cold != 3*512 {
		t.Errorf("warm %d + cold %d != %d", warm, cold, 3*512)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("step after Close: %v", err)
	}
}

func TestPublicSessionStepWithOutputPath(t *testing.T) {
	cfg := NewPeriodicConfig(8, WithGhostSize(3))
	sess, err := Open(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	path := t.TempDir() + "/step.out"
	if _, err := sess.Step(testParticles(96, 8, 8), WithOutputPath(path)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTessFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 512 {
		t.Errorf("read back %d records", len(recs))
	}
}

// A negative or NaN ghost is refused at Open, naming the value, for both
// decompositions; ghost 0 (the accuracy study's) opens. Before, -1 ran as 0
// and NaN failed inside rank 0's compute, leaving the session terminal.
func TestOpenRejectsBadGhost(t *testing.T) {
	for _, decomp := range []DecompKind{DecomposeRegular, DecomposeRCB} {
		for _, g := range []float64{-1, math.NaN()} {
			cfg := NewPeriodicConfig(8, WithGhostSize(g), WithDecomposition(decomp))
			sess, err := Open(cfg, 2)
			if err == nil {
				sess.Close()
				t.Errorf("decomposition %v: Open accepted ghost %g", decomp, g)
			} else if want := fmt.Sprintf("ghost size %g", g); !strings.Contains(err.Error(), want) {
				t.Errorf("decomposition %v: error %q does not name %q", decomp, err, want)
			}
		}
		sess, err := Open(NewPeriodicConfig(8, WithGhostSize(0), WithDecomposition(decomp)), 2)
		if err != nil {
			t.Errorf("decomposition %v: ghost 0: %v", decomp, err)
			continue
		}
		sess.Close()
	}
}

// A session's first StepDensity must cost what a warm one costs: on a 32^3
// N-body snapshot (80k points with the periodic images) the cold
// Bowyer-Watson build allocates linearly — under 1 GB for the whole step,
// where a stamp array remade on every insertion made it 885 GB — and the
// field still conserves mass. An allocation bound, not a wall-clock one.
func TestStepDensityCold32(t *testing.T) {
	sim, err := nbody.New(nbody.DefaultConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(5, nil)
	ps := ParticlesFromSim(sim)
	sess, err := Open(NewPeriodicConfig(32), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sess.StepDensity(ps, DensityConfig{GridN: 64})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<30 {
		t.Errorf("cold StepDensity allocated %d MB, want < 1024", alloc>>20)
	}
	if res.Tracers != 32*32*32 || res.Padded <= res.Tracers || res.Tets == 0 {
		t.Fatalf("%d tracers, %d padded points, %d tets", res.Tracers, res.Padded, res.Tets)
	}
	ratio := res.Stats.GridMass / res.Stats.TracerMass
	t.Logf("allocated %d MB, %d tets, grid mass / tracer mass %.4f", (after.TotalAlloc-before.TotalAlloc)>>20, res.Tets, ratio)
	if math.Abs(ratio-1) > 0.02 {
		t.Errorf("grid mass / tracer mass = %.4f, want within 2%% of 1", ratio)
	}
}

// A density pad that is not finite is an error wherever a config with an
// explicit box enters: density.New, ComputeDensity and StepDensity all
// return the same one. NaN used to pass and pad nothing, so on this
// periodic 5^3 box 296 of 512 samples fell outside the hull and the field
// held 0.60 of the tracer mass; +Inf padded with all 26 image boxes.
func TestDensityRejectsNonFinitePad(t *testing.T) {
	const L = 5
	pts := jitteredLattice(L)
	sess, err := Open(NewPeriodicConfig(L, WithGhostSize(1)), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, pad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dc := DensityConfig{GridN: 8, Box: geom.NewBox(Vec3{}, Vec3{X: L, Y: L, Z: L}), Periodic: true, Pad: pad}
		_, direct := ComputeDensity(dc, pts, nil)
		_, stepped := sess.StepDensity(ParticlesFromPositions(pts), dc)
		if direct == nil || stepped == nil {
			t.Errorf("pad %g: ComputeDensity returned %v, StepDensity %v; want an error from both", pad, direct, stepped)
			continue
		}
		if direct.Error() != stepped.Error() || !strings.Contains(direct.Error(), "pad") {
			t.Errorf("pad %g: ComputeDensity returned %q, StepDensity %q; want one error naming the pad", pad, direct, stepped)
		}
	}
	// The session stays usable: a config error decides nothing it holds.
	dc := DensityConfig{GridN: 8, Box: geom.NewBox(Vec3{}, Vec3{X: L, Y: L, Z: L}), Periodic: true, Pad: 1}
	res, err := sess.StepDensity(ParticlesFromPositions(pts), dc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.Outside != 0 {
		t.Errorf("pad 1: %d samples outside the hull", res.Sample.Outside)
	}
}

// jitteredLattice is an L^3 lattice in a side-L box, each point moved by
// up to 0.15 on every axis.
func jitteredLattice(L int) []Vec3 {
	rng := rand.New(rand.NewSource(5))
	pts := cosmo.LatticePositions(L, float64(L))
	for i := range pts {
		pts[i] = pts[i].Add(Vec3{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5}.Scale(0.3))
	}
	return pts
}

// A NaN percentile and a NaN or infinite void threshold are refused by
// ComputeDensity and by StepDensity on the config it resolves from a zero
// box. A NaN percentile used to come back as a NaN row holding the grid
// maximum, and a NaN or +Inf threshold counted every sample void.
func TestDensityRejectsNonFiniteStats(t *testing.T) {
	const L = 5
	pts := jitteredLattice(L)
	sess, err := Open(NewPeriodicConfig(L, WithGhostSize(1)), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, dc := range []DensityConfig{
		{GridN: 8, Percentiles: []float64{50, math.NaN()}},
		{GridN: 8, VoidThreshold: math.NaN()},
		{GridN: 8, VoidThreshold: math.Inf(1)},
		{GridN: 8, VoidThreshold: math.Inf(-1)},
	} {
		if _, err := sess.StepDensity(ParticlesFromPositions(pts), dc); err == nil {
			t.Errorf("StepDensity accepted %+v", dc)
		}
		dc.Box = geom.NewBox(Vec3{}, Vec3{X: L, Y: L, Z: L})
		if _, err := ComputeDensity(dc, pts, nil); err == nil {
			t.Errorf("ComputeDensity accepted %+v", dc)
		}
	}
	if _, err := sess.StepDensity(ParticlesFromPositions(pts), DensityConfig{GridN: 8, VoidThreshold: 0.5}); err != nil {
		t.Errorf("finite threshold: %v", err)
	}
}

// Open refuses a config its session could not run as asked: a domain that
// is not a finite box (NewPeriodicConfig(-8) is not [-8, 0)^3), no blocks, an armed crash on a rank the session does
// not have, a negative fault delay. Before, a NaN or +Inf domain opened,
// and Run returned no error for a crash on rank 7 of 2 because none fired.
// A disarmed crash names any rank.
func TestOpenRejectsBadConfig(t *testing.T) {
	ps := testParticles(96, 8, 8)
	for name, bad := range map[string]struct {
		cfg    Config
		blocks int
	}{
		"NaN domain":        {NewPeriodicConfig(math.NaN(), WithGhostSize(1)), 2},
		"+Inf domain":       {NewPeriodicConfig(math.Inf(1), WithGhostSize(1)), 2},
		"negative side":     {NewPeriodicConfig(-8, WithGhostSize(1)), 2},
		"flat domain":       {NewBoundedConfig(geom.NewBox(Vec3{}, Vec3{X: 8, Y: 8}), WithGhostSize(1)), 2},
		"no blocks":         {NewPeriodicConfig(8, WithGhostSize(3)), 0},
		"crash rank 7 of 2": {NewPeriodicConfig(8, WithGhostSize(3), WithFaults(&FaultPlan{CrashRank: 7, CrashStep: 1})), 2},
		"negative delay":    {NewPeriodicConfig(8, WithGhostSize(3), WithFaults(&FaultPlan{SendDelayMax: -time.Millisecond})), 2},
	} {
		if sess, err := Open(bad.cfg, bad.blocks); err == nil {
			sess.Close()
			t.Errorf("%s: Open accepted it", name)
		}
		if _, err := Run(bad.cfg, ps, bad.blocks); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
	}
	sess, err := Open(NewPeriodicConfig(8, WithGhostSize(3), WithFaults(&FaultPlan{CrashRank: 99})), 2)
	if err != nil {
		t.Fatalf("disarmed crash: %v", err)
	}
	sess.Close()
}

// The public defaults no longer run Quickhull over every kept cell, and
// nothing downstream can tell: on the 24^3 halo mock with a volume cull
// at both ends — where the hull volume used to decide the cut — counts and
// per-block bytes equal an explicit HullPass run's, at under a quarter of
// its allocations. The kernel proves every cell below MinVolume culled
// before its volume is computed, so the cells culled by volume are the
// ones above MaxVolume.
func TestPublicDefaultsSkipQuickhull(t *testing.T) {
	cp := cosmo.DefaultClusterParams()
	cp.Seed = 7
	ps := ParticlesFromPositions(cosmo.ClusteredPositions(24*24*24, 24, cp))
	cfg := NewPeriodicConfig(24, WithDecomposition(DecomposeRCB))
	cfg.MinVolume = 0.1
	cfg.MaxVolume = 4
	hull := cfg
	hull.HullPass = true

	run := func(cfg Config) (*Output, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := Run(cfg, ps, 8)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return out, after.Mallocs - before.Mallocs
	}
	got, allocs := run(cfg)
	want, hullAllocs := run(hull)

	if got.Counts != want.Counts {
		t.Errorf("counts %+v, with the hull pass %+v", got.Counts, want.Counts)
	}
	if got.Counts.CulledExact == 0 {
		t.Error("no cell was culled by volume: the comparison decides nothing")
	}
	for b := range want.Meshes {
		if !reflect.DeepEqual(got.Meshes[b], want.Meshes[b]) {
			t.Errorf("block %d: bytes differ from the hull-pass run's", b)
		}
	}
	if allocs*4 >= hullAllocs {
		t.Errorf("%d allocations, %d with the hull pass: want under a quarter", allocs, hullAllocs)
	}
}
