package density

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/dtfe"
	"repro/internal/geom"
)

// A box that is not periodic is sampled as it is: cells outside the
// tracers' hull read zero and are counted as outside, and a healthy
// triangulation yields no degenerate sample.
func TestSampleGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	pts := make([]geom.Vec3, 200)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
	}
	res, err := Compute(Config{GridN: 8, Box: geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4))}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, sst := res.Grid, res.Sample
	if len(grid) != 512 {
		t.Fatalf("grid size %d", len(grid))
	}
	if sst.Degenerate != 0 {
		t.Fatalf("%d degenerate samples on a healthy triangulation", sst.Degenerate)
	}
	if sst.Inside+sst.Outside != len(grid) {
		t.Fatalf("stats don't add up: %+v", sst)
	}
	nonzero := 0
	for _, d := range grid {
		if d < 0 {
			t.Fatal("negative density")
		}
		if d > 0 {
			nonzero++
		}
	}
	if nonzero < len(grid)/2 {
		t.Errorf("only %d of %d samples inside hull", nonzero, len(grid))
	}
}

// Regression: the grid sampler used to swallow every interpolation error,
// so a degenerate (zero-volume) containing tet was indistinguishable from
// empty space. Degenerate failures must surface in the sample stats apart
// from outside ones, and DensityInTet must return the ErrDegenerate sentinel.
func TestDegenerateTetSurfacesInStats(t *testing.T) {
	// A hand-built "triangulation" whose only tet is four coplanar points:
	// zero volume, so barycentric interpolation is undefined everywhere.
	tr := &delaunay.Triangulation{
		Points: []geom.Vec3{geom.V(0, 0, 0), geom.V(3, 0, 0), geom.V(0, 3, 0), geom.V(3, 3, 0)},
		Tets:   []delaunay.Tet{{V: [4]int{0, 1, 2, 3}, Nb: [4]int{-1, -1, -1, -1}}},
	}
	f := &dtfe.Field{Tri: tr, Density: []float64{1, 1, 1, 1}}
	if _, err := f.DensityInTet(0, geom.V(1, 1, 0)); !errors.Is(err, dtfe.ErrDegenerate) {
		t.Fatalf("DensityInTet on a flat tet: err = %v, want ErrDegenerate", err)
	}

	// n=3 over z in [-1,1]: the middle plane of cell centers lies exactly
	// in the flat tet's plane, so those samples hit the degenerate tet.
	p, err := New(Config{GridN: 3, Box: geom.NewBox(geom.V(0, 0, -1), geom.V(3, 3, 1))})
	if err != nil {
		t.Fatal(err)
	}
	p.field, p.loc, p.grid = f, tr.NewLocator(0), make([]float64, 27)
	st := p.InterpolateSlab(0, 3, 1)
	if st.Degenerate == 0 {
		t.Fatal("degenerate containing tets not counted by InterpolateSlab")
	}
	if st.Inside != 0 {
		t.Fatalf("%d samples claim success on a zero-volume triangulation", st.Inside)
	}
	if st.Outside+st.Degenerate != 27 {
		t.Fatalf("stats don't add up: %+v", st)
	}
}
