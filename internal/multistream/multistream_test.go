package multistream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
)

func TestComputeValidation(t *testing.T) {
	if _, err := Compute(make([]geom.Vec3, 7), 2, 8, 4); err == nil {
		t.Error("wrong position count accepted")
	}
	if _, err := Compute(make([]geom.Vec3, 8), 2, 8, 0); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := Compute(make([]geom.Vec3, 8), 2, -1, 4); err == nil {
		t.Error("negative box accepted")
	}
}

func TestUnperturbedLatticeIsSingleStream(t *testing.T) {
	const ng = 8
	const L = 8.0
	pos := cosmo.LatticePositions(ng, L)
	f, err := Compute(pos, ng, L, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f.Streams {
		if v != 1 {
			t.Fatalf("sample %d has %d streams on an unperturbed lattice", i, v)
		}
	}
	s := f.Summarize()
	if s.SingleStream != 1 || s.ThreePlus != 0 || s.Max != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestSmallPerturbationStaysSingleStream(t *testing.T) {
	const ng = 8
	const L = 8.0
	rng := rand.New(rand.NewSource(107))
	pos := cosmo.LatticePositions(ng, L)
	for i := range pos {
		pos[i] = cosmo.Wrap(pos[i].Add(geom.V(
			(rng.Float64()-0.5)*0.2, (rng.Float64()-0.5)*0.2, (rng.Float64()-0.5)*0.2)), L)
	}
	f, err := Compute(pos, ng, L, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Summarize()
	// No shell crossing: mean stays ~1, no 3-stream regions.
	if s.ThreePlus > 0.01 {
		t.Errorf("pre-shell-crossing field has %.2f%% multistream samples", 100*s.ThreePlus)
	}
	if math.Abs(s.Mean-1) > 0.05 {
		t.Errorf("mean streams = %v, want ~1", s.Mean)
	}
}

func TestSinusoidalFoldCreatesThreeStreams(t *testing.T) {
	// Displace particles along x by A*sin(2 pi x / L) with A large enough
	// that the Lagrangian map folds (A * 2pi/L > 1): the classic Zel'dovich
	// pancake. The fold produces 3-stream regions.
	const ng = 16
	const L = 16.0
	pos := cosmo.LatticePositions(ng, L)
	A := 1.8 * L / (2 * math.Pi) // fold factor 1.8
	for i := range pos {
		dx := A * math.Sin(2*math.Pi*pos[i].X/L)
		pos[i] = cosmo.Wrap(pos[i].Add(geom.V(dx, 0, 0)), L)
	}
	f, err := Compute(pos, ng, L, 32)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Summarize()
	if s.Max < 3 {
		t.Fatalf("fold produced max %d streams, want >= 3", s.Max)
	}
	if s.ThreePlus == 0 {
		t.Fatal("no 3-stream samples in a folded flow")
	}
	if s.SingleStream == 0 {
		t.Fatal("no single-stream (void) samples remain")
	}
	// Mass conservation with multiplicity: mean streams = total Lagrangian
	// volume / box volume = 1 only without folds; with folds it exceeds 1.
	if s.Mean <= 1 {
		t.Errorf("mean streams %v should exceed 1 after folding", s.Mean)
	}
}

func TestStreamCountIsOddInGenericRegions(t *testing.T) {
	// In 1D folds, the stream count at a generic point is odd (1 or 3).
	const ng = 16
	const L = 16.0
	pos := cosmo.LatticePositions(ng, L)
	A := 1.5 * L / (2 * math.Pi)
	for i := range pos {
		dx := A * math.Sin(2*math.Pi*pos[i].X/L)
		pos[i] = cosmo.Wrap(pos[i].Add(geom.V(dx, 0, 0)), L)
	}
	f, err := Compute(pos, ng, L, 32)
	if err != nil {
		t.Fatal(err)
	}
	odd, even := 0, 0
	for _, v := range f.Streams {
		if v%2 == 1 {
			odd++
		} else {
			even++
		}
	}
	// Caustic surfaces (even counts) are measure-zero; allow a small
	// fraction from samples landing near them.
	if frac := float64(even) / float64(odd+even); frac > 0.15 {
		t.Errorf("%.1f%% of samples have even stream counts; expected odd counts generically", 100*frac)
	}
}
