package qhull

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// Area returns the total surface area of the hull.
func (h *Hull) Area() float64 {
	var area float64
	for _, f := range h.Faces {
		area += geom.TriangleArea(h.Points[f.V[0]], h.Points[f.V[1]], h.Points[f.V[2]])
	}
	return area
}

// Centroid returns the centroid of the hull vertices (not the volumetric
// centroid).
func (h *Hull) Centroid() geom.Vec3 {
	var c geom.Vec3
	for _, vi := range h.VertexIndices {
		c = c.Add(h.Points[vi])
	}
	return c.Scale(1 / float64(len(h.VertexIndices)))
}

// Contains reports whether p lies inside or on the hull (within tolerance).
func (h *Hull) Contains(p geom.Vec3) bool {
	for _, f := range h.Faces {
		if f.Plane.Eval(p) > h.eps {
			return false
		}
	}
	return true
}

func cubeCorners(s float64) []geom.Vec3 {
	b := geom.NewBox(geom.V(0, 0, 0), geom.V(s, s, s))
	c := b.Corners()
	return c[:]
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute([]geom.Vec3{{}, {X: 1}, {Y: 1}}); err != ErrDegenerate {
		t.Errorf("3 points: err = %v", err)
	}
	// Collinear.
	col := []geom.Vec3{{}, {X: 1}, {X: 2}, {X: 3}, {X: 4}}
	if _, err := Compute(col); err != ErrDegenerate {
		t.Errorf("collinear: err = %v", err)
	}
	// Coplanar.
	cop := []geom.Vec3{{}, {X: 1}, {Y: 1}, {X: 1, Y: 1}, {X: 0.5, Y: 0.5}}
	if _, err := Compute(cop); err != ErrDegenerate {
		t.Errorf("coplanar: err = %v", err)
	}
	// Non-finite.
	bad := []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: math.NaN()}}
	if _, err := Compute(bad); err == nil {
		t.Error("NaN input accepted")
	}
}

func TestTetrahedron(t *testing.T) {
	pts := []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}}
	h, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Faces) != 4 {
		t.Errorf("faces = %d, want 4", len(h.Faces))
	}
	if len(h.VertexIndices) != 4 {
		t.Errorf("vertices = %d, want 4", len(h.VertexIndices))
	}
	if got := h.Volume(); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("volume = %v, want 1/6", got)
	}
	wantArea := 1.5 + math.Sqrt(3)/2
	if got := h.Area(); math.Abs(got-wantArea) > 1e-12 {
		t.Errorf("area = %v, want %v", got, wantArea)
	}
}

func TestCube(t *testing.T) {
	pts := cubeCorners(2)
	h, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Volume(); math.Abs(got-8) > 1e-9 {
		t.Errorf("cube volume = %v, want 8", got)
	}
	if got := h.Area(); math.Abs(got-24) > 1e-9 {
		t.Errorf("cube area = %v, want 24", got)
	}
	if len(h.VertexIndices) != 8 {
		t.Errorf("cube hull vertices = %d, want 8", len(h.VertexIndices))
	}
	if len(h.Faces) != 12 {
		t.Errorf("cube triangles = %d, want 12", len(h.Faces))
	}
}

func TestCubeWithInteriorPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pts := cubeCorners(2)
	for i := 0; i < 500; i++ {
		pts = append(pts, geom.V(rng.Float64()*2, rng.Float64()*2, rng.Float64()*2))
	}
	h, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Volume(); math.Abs(got-8) > 1e-9 {
		t.Errorf("volume = %v, want 8", got)
	}
	// Interior points are not hull vertices.
	for _, vi := range h.VertexIndices {
		if vi >= 8 {
			t.Errorf("interior point %d on hull", vi)
		}
	}
}

func TestAllPointsInsideHull(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(200)
		pts := make([]geom.Vec3, n)
		for i := range pts {
			pts[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		}
		h, err := Compute(pts)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if !h.Contains(p) {
				t.Fatalf("trial %d: input point %d (%v) outside hull", trial, i, p)
			}
		}
	}
}

func TestHullOfHullIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pts := make([]geom.Vec3, 300)
	for i := range pts {
		pts[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	h1, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	sub := make([]geom.Vec3, len(h1.VertexIndices))
	for i, vi := range h1.VertexIndices {
		sub[i] = pts[vi]
	}
	h2, err := Compute(sub)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h1.Volume()-h2.Volume()) > 1e-9*math.Max(h1.Volume(), 1) {
		t.Errorf("volumes differ: %v vs %v", h1.Volume(), h2.Volume())
	}
	if math.Abs(h1.Area()-h2.Area()) > 1e-9*math.Max(h1.Area(), 1) {
		t.Errorf("areas differ: %v vs %v", h1.Area(), h2.Area())
	}
	if len(h2.VertexIndices) != len(h1.VertexIndices) {
		t.Errorf("vertex counts differ: %d vs %d", len(h1.VertexIndices), len(h2.VertexIndices))
	}
}

func TestVolumePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pts := make([]geom.Vec3, 60)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*5, rng.Float64()*5, rng.Float64()*5)
	}
	h1, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	perm := append([]geom.Vec3(nil), pts...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	h2, err := Compute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h1.Volume()-h2.Volume()) > 1e-9*h1.Volume() {
		t.Errorf("volume changed under permutation: %v vs %v", h1.Volume(), h2.Volume())
	}
}

func TestVolumeRigidMotionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pts := make([]geom.Vec3, 80)
	for i := range pts {
		pts[i] = geom.V(rng.Float64(), rng.Float64(), rng.Float64())
	}
	h1, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Rotate by 30 degrees about z and translate.
	c, s := math.Cos(math.Pi/6), math.Sin(math.Pi/6)
	moved := make([]geom.Vec3, len(pts))
	for i, p := range pts {
		moved[i] = geom.V(c*p.X-s*p.Y+10, s*p.X+c*p.Y-3, p.Z+7)
	}
	h2, err := Compute(moved)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h1.Volume()-h2.Volume()) > 1e-8*math.Max(h1.Volume(), 1) {
		t.Errorf("volume changed under rigid motion: %v vs %v", h1.Volume(), h2.Volume())
	}
}

func TestSphereVolumeConverges(t *testing.T) {
	// Hull of many points on a unit sphere approximates sphere volume and
	// area from below.
	rng := rand.New(rand.NewSource(37))
	n := 2000
	pts := make([]geom.Vec3, n)
	for i := range pts {
		v := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
		pts[i] = v
	}
	h, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	sphereVol := 4 * math.Pi / 3
	if h.Volume() > sphereVol {
		t.Errorf("hull volume %v exceeds sphere volume %v", h.Volume(), sphereVol)
	}
	if h.Volume() < 0.97*sphereVol {
		t.Errorf("hull volume %v too far below sphere volume %v", h.Volume(), sphereVol)
	}
	if h.Area() > 4*math.Pi || h.Area() < 0.97*4*math.Pi {
		t.Errorf("hull area %v vs sphere area %v", h.Area(), 4*math.Pi)
	}
}

func TestEulerFormula(t *testing.T) {
	// For a triangulated convex polytope: V - E + F = 2, E = 3F/2.
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 20; trial++ {
		pts := make([]geom.Vec3, 30+rng.Intn(100))
		for i := range pts {
			pts[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		}
		h, err := Compute(pts)
		if err != nil {
			t.Fatal(err)
		}
		v := len(h.VertexIndices)
		f := len(h.Faces)
		if f%2 != 0 {
			t.Fatalf("odd face count %d", f)
		}
		e := 3 * f / 2
		if v-e+f != 2 {
			t.Fatalf("Euler violated: V=%d E=%d F=%d", v, e, f)
		}
	}
}

func TestFacesOutwardOriented(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	pts := make([]geom.Vec3, 100)
	for i := range pts {
		pts[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	h, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	c := h.Centroid()
	for _, f := range h.Faces {
		if f.Plane.Eval(c) >= 0 {
			t.Fatalf("face %v does not face away from centroid (eval %v)", f.V, f.Plane.Eval(c))
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := cubeCorners(1)
	pts = append(pts, pts...) // every corner twice
	h, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Volume()-1) > 1e-9 {
		t.Errorf("volume with duplicates = %v", h.Volume())
	}
}

func TestNearDegenerateThin(t *testing.T) {
	// A very thin slab is still full-dimensional; volume should match.
	rng := rand.New(rand.NewSource(41))
	pts := make([]geom.Vec3, 200)
	for i := range pts {
		pts[i] = geom.V(rng.Float64(), rng.Float64(), rng.Float64()*1e-3)
	}
	h, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	if h.Volume() <= 0 || h.Volume() > 1e-3 {
		t.Errorf("thin slab volume = %v", h.Volume())
	}
	for i, p := range pts {
		if !h.Contains(p) {
			t.Fatalf("point %d escaped thin hull", i)
		}
	}
}

func BenchmarkHull1000(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	pts := make([]geom.Vec3, 1000)
	for i := range pts {
		pts[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHullCell35(b *testing.B) {
	// Typical Voronoi cell size from the paper: ~35 vertices.
	rng := rand.New(rand.NewSource(43))
	pts := make([]geom.Vec3, 35)
	for i := range pts {
		pts[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(pts); err != nil {
			b.Fatal(err)
		}
	}
}
