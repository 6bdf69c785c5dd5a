package dtfe

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

func cloud(seed int64, n int, scale float64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*scale, rng.Float64()*scale, rng.Float64()*scale)
	}
	return pts
}

// Regression: tracers merged away as duplicates used to keep density zero
// (and their mass vanished from the estimate). They must read their
// representative's density, and the representative must carry the combined
// mass.
func TestDuplicateTracersKeepDensityAndMass(t *testing.T) {
	base := cloud(21, 60, 4)
	pts := append(append([]geom.Vec3(nil), base...), base[5], base[12], base[12])
	f, err := Estimate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dup := range []int{60, 61, 62} {
		if f.Density[dup] == 0 {
			t.Errorf("duplicate tracer %d has zero density", dup)
		}
	}
	if f.Density[60] != f.Density[5] {
		t.Errorf("duplicate density %v != representative %v", f.Density[60], f.Density[5])
	}
	if f.Density[61] != f.Density[12] || f.Density[62] != f.Density[12] {
		t.Error("triple-merged tracers disagree with representative")
	}

	// The representative's estimate must include the duplicate's mass:
	// compare against the deduplicated cloud with explicit summed masses.
	masses := make([]float64, len(base))
	for i := range masses {
		masses[i] = 1
	}
	masses[5] = 2  // one duplicate folded in
	masses[12] = 3 // two duplicates folded in
	ref, err := Estimate(base, masses)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if math.Abs(f.Density[i]-ref.Density[i]) > 1e-12*(1+ref.Density[i]) {
			t.Fatalf("vertex %d: density %v with duplicates, %v with explicit masses",
				i, f.Density[i], ref.Density[i])
		}
	}
}

// IntegratedMass integrates the interpolated field over the triangulated
// hull. The field is linear on each tet, so the integral is exactly
// sum_t V_t * mean(corner densities), which telescopes to
// sum_i rho_i V(star_i)/4 = sum_i m_i: the estimator conserves mass, and
// the conservation tests pin this identity against the tracer masses.
func (f *Field) IntegratedMass() float64 {
	var total float64
	for ti, t := range f.Tri.Tets {
		v := f.Tri.TetVolume(ti)
		s := f.Density[t.V[0]] + f.Density[t.V[1]] + f.Density[t.V[2]] + f.Density[t.V[3]]
		total += v * s / 4
	}
	return total
}

// Regression: the integral of the interpolated field over the hull must
// equal the total tracer mass — including mass carried by merged
// duplicates, and for both the unit-mass and explicit-mass paths.
func TestMassConservation(t *testing.T) {
	pts := cloud(33, 150, 5)
	pts = append(pts, pts[0], pts[70], pts[149]) // duplicates carry mass too

	t.Run("unit", func(t *testing.T) {
		f, err := Estimate(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(len(pts))
		got := f.IntegratedMass()
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("integrated mass %v, want %v (unit tracers)", got, want)
		}
	})

	t.Run("weighted", func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		masses := make([]float64, len(pts))
		var want float64
		for i := range masses {
			masses[i] = 0.5 + rng.Float64()
			want += masses[i]
		}
		f, err := Estimate(pts, masses)
		if err != nil {
			t.Fatal(err)
		}
		got := f.IntegratedMass()
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("integrated mass %v, want %v (weighted tracers)", got, want)
		}
	})
}

// The estimator must produce identical bytes whether run through a fresh
// Estimate or a warm Estimator reused across snapshots.
func TestEstimatorReuseMatchesFresh(t *testing.T) {
	var est Estimator
	var scratch delaunay.Builder
	for round := 0; round < 3; round++ {
		pts := cloud(int64(40+round), 100+20*round, 4)
		tr, err := scratch.Build(pts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := est.Estimate(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Estimate(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(warm.Density) != len(cold.Density) {
			t.Fatal("length mismatch")
		}
		for i := range warm.Density {
			if warm.Density[i] != cold.Density[i] {
				t.Fatalf("round %d vertex %d: warm %v != cold %v",
					round, i, warm.Density[i], cold.Density[i])
			}
		}
	}
}
