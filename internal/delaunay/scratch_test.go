package delaunay

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

func randomCloud(seed int64, n int, scale float64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*scale, rng.Float64()*scale, rng.Float64()*scale)
	}
	return pts
}

// checkRepIsLowest requires every point of tr to be represented by the
// lowest index among the points exactly equal to it, and no other point to
// be a tet vertex.
func checkRepIsLowest(t *testing.T, tr *Triangulation) {
	t.Helper()
	lowest := map[geom.Vec3]int{} // -0 and +0 are one key, as they are one point
	for i, p := range tr.Points {
		if _, ok := lowest[p]; !ok {
			lowest[p] = i
		}
	}
	for i, p := range tr.Points {
		if got := tr.Representative(i); got != lowest[p] {
			t.Fatalf("Rep[%d] = %d, want %d, the lowest coincident index", i, got, lowest[p])
		}
	}
	for _, tet := range tr.Tets {
		for _, v := range tet.V {
			if tr.Representative(v) != v {
				t.Fatalf("duplicate %d of %d appears in a tet", v, tr.Representative(v))
			}
		}
	}
}

func TestRepRecordsDuplicates(t *testing.T) {
	pts := randomCloud(11, 40, 4)
	// Append exact duplicates of points 3 and 7.
	pts = append(pts, pts[3], pts[7])
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rep == nil {
		t.Fatal("Build left Rep nil")
	}
	if got := tr.Representative(40); got != 3 {
		t.Errorf("Rep[40] = %d, want 3", got)
	}
	if got := tr.Representative(41); got != 7 {
		t.Errorf("Rep[41] = %d, want 7", got)
	}
	for i := 0; i < 40; i++ {
		if tr.Representative(i) != i {
			t.Errorf("Rep[%d] = %d, want identity", i, tr.Representative(i))
		}
	}
	checkRepIsLowest(t, tr)

	// 42 points are one BRIO round. A cloud of 20 000 has five, and its
	// coincident points must still share a round and a Hilbert key, so the
	// lowest index among them is inserted first wherever it sits: copies
	// are scattered both ways, a few onto the lowest points, and one pair
	// differs only in the sign of a zero coordinate.
	big := randomCloud(12, 20000, 10)
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 2000; k++ {
		big[rng.Intn(len(big))] = big[rng.Intn(len(big))]
	}
	for k := 0; k < 5; k++ {
		big[len(big)-1-k] = big[k]
	}
	big[100].X = 0
	big[200] = big[100]
	big[200].X = math.Copysign(0, -1)
	var s Builder
	if tr, err = s.Build(big); err != nil {
		t.Fatal(err)
	}
	// A duplicate's walk stops at its vertex instead of circling it until
	// the step cap (15 000 steps per point before it did).
	if st := s.Stats(); st.Duplicates < 1500 || st.WalkSteps > 10*st.Points {
		t.Fatalf("%d duplicates merged in %d walk steps for %d points", st.Duplicates, st.WalkSteps, st.Points)
	}
	checkRepIsLowest(t, tr)
}

func TestBuilderReuseMatchesFreshBuild(t *testing.T) {
	var s Builder
	for round := 0; round < 3; round++ {
		pts := randomCloud(int64(100+round), 120+30*round, 5)
		warm, err := s.Build(pts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cold, err := Build(pts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(warm.Tets, cold.Tets) {
			t.Fatalf("round %d: warm tets differ from cold build", round)
		}
		if !reflect.DeepEqual(warm.Rep, cold.Rep) {
			t.Fatalf("round %d: warm Rep differs from cold build", round)
		}
	}
}

func TestLocatorAgreesWithExhaustive(t *testing.T) {
	pts := randomCloud(7, 300, 6)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	loc := tr.NewLocator(0)

	contains := func(ti int, p geom.Vec3) bool {
		for f := 0; f < 4; f++ {
			fv := faceVerts(tr.Tets[ti].V, f)
			if geom.Orient3DVal(tr.Points[fv[0]], tr.Points[fv[1]], tr.Points[fv[2]], p) < -1e-12 {
				return false
			}
		}
		return true
	}

	// Tet barycenters are unambiguously interior: the locator must find a
	// containing tet for each, and it must actually contain the point.
	for ti := range tr.Tets {
		tet := tr.Tets[ti]
		var c geom.Vec3
		for _, v := range tet.V {
			c = c.Add(tr.Points[v])
		}
		c = c.Scale(0.25)
		got := loc.Locate(c)
		if got < 0 {
			t.Fatalf("locator lost barycenter of tet %d", ti)
		}
		if !contains(got, c) {
			t.Fatalf("locator returned tet %d not containing barycenter of %d", got, ti)
		}
	}

	// Far-outside points must read outside, matching the exhaustive scan.
	outside := []geom.Vec3{geom.V(-50, 0, 0), geom.V(3, 99, 3), geom.V(7, 7, -80)}
	for _, p := range outside {
		if got := loc.Locate(p); got != -1 {
			t.Errorf("locator claims %v is inside tet %d", p, got)
		}
		if got := tr.Locate(p); got != -1 {
			t.Errorf("exhaustive Locate claims %v is inside tet %d", p, got)
		}
	}

	// Locator results are pure functions of (triangulation, point): a second
	// locator over the same mesh answers identically.
	loc2 := tr.NewLocator(0)
	for i := 0; i < 200; i++ {
		p := randomCloud(int64(500+i), 1, 6)[0]
		if loc.Locate(p) != loc2.Locate(p) {
			t.Fatalf("locator nondeterminism at %v", p)
		}
	}
}
