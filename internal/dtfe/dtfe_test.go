package dtfe

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestEstimateErrors(t *testing.T) {
	pts := []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}}
	if _, err := Estimate(pts, []float64{1, 2}); err == nil {
		t.Error("mass length mismatch accepted")
	}
	if _, err := Estimate(pts[:2], nil); err == nil {
		t.Error("degenerate input accepted")
	}
}

func TestUniformFieldIsRoughlyFlat(t *testing.T) {
	// A perturbed lattice has near-uniform DTFE density away from the hull
	// boundary (boundary vertices have truncated stars and read high).
	rng := rand.New(rand.NewSource(91))
	var pts []geom.Vec3
	const n = 7
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pts = append(pts, geom.V(
					float64(x)+0.2*rng.Float64(),
					float64(y)+0.2*rng.Float64(),
					float64(z)+0.2*rng.Float64()))
			}
		}
	}
	f, err := Estimate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Interior vertices: index with all coords in [2, n-3].
	var interior []float64
	for z := 2; z < n-2; z++ {
		for y := 2; y < n-2; y++ {
			for x := 2; x < n-2; x++ {
				interior = append(interior, f.Density[(z*n+y)*n+x])
			}
		}
	}
	var sum float64
	for _, d := range interior {
		sum += d
	}
	mean := sum / float64(len(interior))
	// Unit lattice spacing: expect density near 1 tracer per unit volume.
	if mean < 0.5 || mean > 2 {
		t.Errorf("interior mean density = %v, want ~1", mean)
	}
	for _, d := range interior {
		if d < mean/5 || d > mean*5 {
			t.Errorf("interior density %v far from mean %v", d, mean)
		}
	}
}

func TestClusterReadsDenser(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	var pts []geom.Vec3
	// Sparse background.
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10))
	}
	// Tight cluster near the center.
	clusterStart := len(pts)
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.V(
			5+rng.NormFloat64()*0.3, 5+rng.NormFloat64()*0.3, 5+rng.NormFloat64()*0.3))
	}
	f, err := Estimate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var bg, cl float64
	var nbg, ncl int
	for i, d := range f.Density {
		if d == 0 {
			continue
		}
		if i >= clusterStart {
			cl += d
			ncl++
		} else {
			bg += d
			nbg++
		}
	}
	if cl/float64(ncl) < 5*bg/float64(nbg) {
		t.Errorf("cluster density %v not well above background %v",
			cl/float64(ncl), bg/float64(nbg))
	}
}

func TestDensityAtVertexApproximation(t *testing.T) {
	// Sampling right next to a vertex reads close to that vertex's value.
	rng := rand.New(rand.NewSource(93))
	pts := make([]geom.Vec3, 100)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*5, rng.Float64()*5, rng.Float64()*5)
	}
	f, err := Estimate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for vi := 0; vi < len(pts) && checked < 20; vi++ {
		if f.Density[vi] == 0 {
			continue
		}
		d, err := densityAt(f, pts[vi])
		if err != nil {
			continue
		}
		// Exactly at the vertex, barycentric interpolation yields the
		// vertex value.
		if math.Abs(d-f.Density[vi]) > 1e-6*f.Density[vi] {
			t.Errorf("vertex %d: interpolated %v, stored %v", vi, d, f.Density[vi])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no vertices checked")
	}
}

func TestDensityAtOutside(t *testing.T) {
	pts := []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}}
	f, err := Estimate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := densityAt(f, geom.V(100, 100, 100)); err != ErrOutside {
		t.Errorf("outside sample: %v", err)
	}
}

func TestMassWeighting(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	pts := make([]geom.Vec3, 80)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
	}
	unit, err := Estimate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	masses := make([]float64, len(pts))
	for i := range masses {
		masses[i] = 3
	}
	weighted, err := Estimate(pts, masses)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if math.Abs(weighted.Density[i]-3*unit.Density[i]) > 1e-9*(1+unit.Density[i]) {
			t.Fatalf("vertex %d: mass scaling broken", i)
		}
	}
}

// densityAt interpolates the density at p within its containing tet,
// located by exhaustive search.
func densityAt(f *Field, p geom.Vec3) (float64, error) {
	ti := f.Tri.Locate(p)
	if ti < 0 {
		return 0, ErrOutside
	}
	return f.DensityInTet(ti, p)
}
