package delaunay

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/qhull"
)

func randPts(rng *rand.Rand, n int, L float64) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L)
	}
	return pts
}

// TotalVolume returns the volume of the triangulated region (the convex
// hull of the input).
func (tr *Triangulation) TotalVolume() float64 {
	var v float64
	for i := range tr.Tets {
		v += tr.TetVolume(i)
	}
	return v
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(randPts(rand.New(rand.NewSource(1)), 3, 1)); err != ErrDegenerate {
		t.Errorf("3 points: %v", err)
	}
	bad := []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: math.Inf(1)}}
	if _, err := Build(bad); err == nil {
		t.Error("Inf accepted")
	}
}

func TestSingleTet(t *testing.T) {
	pts := []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tets) != 1 {
		t.Fatalf("tets = %d, want 1", len(tr.Tets))
	}
	tet := tr.Tets[0]
	if geom.Orient3DVal(pts[tet.V[0]], pts[tet.V[1]], pts[tet.V[2]], pts[tet.V[3]]) <= 0 {
		t.Error("tet not positively oriented")
	}
	for _, nb := range tet.Nb {
		if nb != -1 {
			t.Errorf("single tet has neighbor %d", nb)
		}
	}
	if math.Abs(tr.TotalVolume()-1.0/6) > 1e-12 {
		t.Errorf("volume = %v", tr.TotalVolume())
	}
}

func TestDelaunayEmptySphereProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	pts := randPts(rng, 120, 10)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tet := range tr.Tets {
		a, b, c, d := pts[tet.V[0]], pts[tet.V[1]], pts[tet.V[2]], pts[tet.V[3]]
		for pi, p := range pts {
			if pi == tet.V[0] || pi == tet.V[1] || pi == tet.V[2] || pi == tet.V[3] {
				continue
			}
			if geom.InSphere(a, b, c, d, p) > 0 {
				t.Fatalf("tet %d circumsphere contains point %d", ti, pi)
			}
		}
	}
}

func TestVolumeMatchesConvexHull(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	pts := randPts(rng, 200, 5)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := qhull.Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.TotalVolume()-h.Volume()) > 1e-6*h.Volume() {
		t.Errorf("triangulation volume %v != hull volume %v", tr.TotalVolume(), h.Volume())
	}
}

func TestNeighborConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pts := randPts(rng, 150, 8)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tet := range tr.Tets {
		for f := 0; f < 4; f++ {
			nb := tet.Nb[f]
			if nb < 0 {
				continue
			}
			if nb >= len(tr.Tets) {
				t.Fatalf("tet %d neighbor %d out of range", ti, nb)
			}
			// The neighbor must point back at ti across some face.
			back := false
			for g := 0; g < 4; g++ {
				if tr.Tets[nb].Nb[g] == ti {
					back = true
				}
			}
			if !back {
				t.Fatalf("tet %d -> %d not symmetric", ti, nb)
			}
			// Shared face: 3 common vertices.
			common := 0
			for _, a := range tet.V {
				for _, b := range tr.Tets[nb].V {
					if a == b {
						common++
					}
				}
			}
			if common != 3 {
				t.Fatalf("tet %d and %d share %d vertices, want 3", ti, nb, common)
			}
		}
	}
}

func TestAllTetsPositivelyOriented(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	pts := randPts(rng, 100, 3)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tet := range tr.Tets {
		if geom.Orient3DVal(pts[tet.V[0]], pts[tet.V[1]], pts[tet.V[2]], pts[tet.V[3]]) <= 0 {
			t.Fatalf("tet %d not positively oriented", ti)
		}
	}
}

func TestDuplicatePointsMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := randPts(rng, 50, 4)
	dup := append(append([]geom.Vec3(nil), pts...), pts[:10]...)
	tr, err := Build(dup)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicated vertices must not appear.
	for _, tet := range tr.Tets {
		for _, vi := range tet.V {
			if vi >= len(pts) {
				t.Fatalf("duplicate vertex %d used", vi)
			}
		}
	}
	trOrig, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.TotalVolume()-trOrig.TotalVolume()) > 1e-9 {
		t.Error("duplicates changed the triangulation volume")
	}
}

func TestCircumcentersEquidistant(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := randPts(rng, 60, 6)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	ccs := tr.Circumcenters()
	for ti, tet := range tr.Tets {
		cc := ccs[ti]
		r := cc.Dist(pts[tet.V[0]])
		for _, vi := range tet.V[1:] {
			if math.Abs(cc.Dist(pts[vi])-r) > 1e-5*math.Max(r, 1) {
				t.Fatalf("tet %d circumcenter not equidistant", ti)
			}
		}
	}
}

func TestEdgesSymmetricUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := randPts(rng, 80, 5)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	edges := tr.Edges()
	seen := map[[2]int]bool{}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not normalized", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	pts := randPts(rng, 100, 5)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Interior points (centroids of tets) are located in their tet region.
	for ti, tet := range tr.Tets {
		c := geom.Centroid([]geom.Vec3{pts[tet.V[0]], pts[tet.V[1]], pts[tet.V[2]], pts[tet.V[3]]})
		li := tr.Locate(c)
		if li < 0 {
			t.Fatalf("centroid of tet %d not located", ti)
		}
	}
	// A point far outside the hull is not found.
	if tr.Locate(geom.V(1e6, 1e6, 1e6)) != -1 {
		t.Error("distant point located inside hull")
	}
}

func TestPerturbedLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	var pts []geom.Vec3
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				pts = append(pts, geom.V(
					float64(x)+0.3*rng.Float64(),
					float64(y)+0.3*rng.Float64(),
					float64(z)+0.3*rng.Float64()))
			}
		}
	}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := qhull.Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.TotalVolume()-h.Volume()) > 1e-6*h.Volume() {
		t.Errorf("volume %v != hull volume %v", tr.TotalVolume(), h.Volume())
	}
}

func BenchmarkBuild500(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	pts := randPts(rng, 500, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts); err != nil {
			b.Fatal(err)
		}
	}
}
