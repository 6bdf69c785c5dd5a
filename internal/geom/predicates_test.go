package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Orient3D returns +1 if d lies on the positive side of the plane through
// a, b, c (counterclockwise when viewed from the positive side), -1 if on
// the negative side, and 0 if the four points are coplanar within tolerance.
func Orient3D(a, b, c, d Vec3) int {
	ba, ca, da := b.Sub(a), c.Sub(a), d.Sub(a)
	det := det3(ba, ca, da)

	// Permanent-style error bound: sum of absolute values of the terms.
	perm := permDet3(ba, ca, da)
	tol := epsUnit * perm
	switch {
	case det > tol:
		return 1
	case det < -tol:
		return -1
	default:
		return 0
	}
}

func TestOrient3DBasic(t *testing.T) {
	a, b, c := V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)
	if got := Orient3D(a, b, c, V(0, 0, 1)); got != 1 {
		t.Errorf("above plane: Orient3D = %d, want 1", got)
	}
	if got := Orient3D(a, b, c, V(0, 0, -1)); got != -1 {
		t.Errorf("below plane: Orient3D = %d, want -1", got)
	}
	if got := Orient3D(a, b, c, V(0.3, 0.3, 0)); got != 0 {
		t.Errorf("coplanar: Orient3D = %d, want 0", got)
	}
}

func TestOrient3DAntisymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		a := randVec(rng, 10)
		b := randVec(rng, 10)
		c := randVec(rng, 10)
		d := randVec(rng, 10)
		// Swapping two arguments flips the sign.
		if Orient3D(a, b, c, d) != -Orient3D(b, a, c, d) {
			t.Fatalf("swap did not flip sign for %v %v %v %v", a, b, c, d)
		}
	}
}

func randVec(rng *rand.Rand, s float64) Vec3 {
	return V(rng.Float64()*s, rng.Float64()*s, rng.Float64()*s)
}

func TestInSphereBasic(t *testing.T) {
	// Unit tetrahedron, positively oriented.
	a, b, c, d := V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)
	if Orient3D(a, b, c, d) <= 0 {
		t.Fatal("test tetrahedron not positively oriented")
	}
	if got := InSphere(a, b, c, d, V(0.25, 0.25, 0.25)); got != 1 {
		t.Errorf("interior point: InSphere = %d, want 1", got)
	}
	if got := InSphere(a, b, c, d, V(10, 10, 10)); got != -1 {
		t.Errorf("distant point: InSphere = %d, want -1", got)
	}
	// A vertex of the tetrahedron is on the sphere.
	if got := InSphere(a, b, c, d, a); got != 0 {
		t.Errorf("vertex: InSphere = %d, want 0", got)
	}
}

func TestInSphereAgainstCircumcenter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 2000 && checked < 500; i++ {
		a, b, c, d := randVec(rng, 1), randVec(rng, 1), randVec(rng, 1), randVec(rng, 1)
		if Orient3D(a, b, c, d) <= 0 {
			a, b = b, a
		}
		if Orient3D(a, b, c, d) <= 0 {
			continue
		}
		cc, ok := Circumcenter(a, b, c, d)
		if !ok {
			continue
		}
		r := cc.Dist(a)
		e := randVec(rng, 1)
		de := cc.Dist(e)
		if math.Abs(de-r) < 1e-6*math.Max(r, 1) {
			continue // too close to the sphere to trust either method
		}
		want := -1
		if de < r {
			want = 1
		}
		if got := InSphere(a, b, c, d, e); got != want {
			t.Fatalf("InSphere=%d, circumcenter says %d (r=%v de=%v)", got, want, r, de)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("too few valid cases checked: %d", checked)
	}
}

func TestCircumcenterEquidistant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		a, b, c, d := randVec(rng, 5), randVec(rng, 5), randVec(rng, 5), randVec(rng, 5)
		cc, ok := Circumcenter(a, b, c, d)
		if !ok {
			continue
		}
		r := cc.Dist(a)
		for _, p := range []Vec3{b, c, d} {
			if math.Abs(cc.Dist(p)-r) > 1e-6*math.Max(1, r) {
				t.Fatalf("circumcenter not equidistant: %v vs %v", cc.Dist(p), r)
			}
		}
	}
}

func TestCircumcenterDegenerate(t *testing.T) {
	// Four coplanar points have no finite circumsphere.
	if _, ok := Circumcenter(V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(1, 1, 0)); ok {
		t.Error("coplanar circumcenter reported ok")
	}
}

func TestTetVolume(t *testing.T) {
	got := TetVolume(V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1))
	if !almostEq(got, 1.0/6, 1e-15) {
		t.Errorf("TetVolume = %v, want 1/6", got)
	}
	// Volume is permutation invariant in magnitude.
	if got2 := TetVolume(V(1, 0, 0), V(0, 0, 0), V(0, 1, 0), V(0, 0, 1)); !almostEq(got, got2, 1e-15) {
		t.Errorf("permutation changed volume: %v vs %v", got, got2)
	}
}

func TestTriangleAndPolygonArea(t *testing.T) {
	if got := TriangleArea(V(0, 0, 0), V(2, 0, 0), V(0, 2, 0)); got != 2 {
		t.Errorf("TriangleArea = %v, want 2", got)
	}
	square := []Vec3{V(0, 0, 0), V(1, 0, 0), V(1, 1, 0), V(0, 1, 0)}
	if got := PolygonArea(square); !almostEq(got, 1, 1e-15) {
		t.Errorf("PolygonArea = %v, want 1", got)
	}
	if got := PolygonArea(square[:2]); got != 0 {
		t.Errorf("degenerate PolygonArea = %v, want 0", got)
	}
}

func TestPolygonNormal(t *testing.T) {
	square := []Vec3{V(0, 0, 5), V(1, 0, 5), V(1, 1, 5), V(0, 1, 5)}
	n := PolygonNormal(square).Normalize()
	if !vecAlmostEq(n, V(0, 0, 1), 1e-12) {
		t.Errorf("PolygonNormal = %v", n)
	}
	// Newell normal magnitude is twice the area.
	if got := PolygonNormal(square).Norm() / 2; !almostEq(got, 1, 1e-12) {
		t.Errorf("Newell area = %v, want 1", got)
	}
}

func TestOrient3DScaleInvariance(t *testing.T) {
	// The sign must be stable across coordinate magnitudes (unit box vs
	// simulation box of hundreds of units).
	a, b, c, d := V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0.2, 0.2, 0.7)
	for _, s := range []float64{1e-3, 1, 128, 1e6} {
		if got := Orient3D(a.Scale(s), b.Scale(s), c.Scale(s), d.Scale(s)); got != 1 {
			t.Errorf("scale %g: Orient3D = %d, want 1", s, got)
		}
	}
}

// inSphereRef is InSphere without its fast accept: the scaled-epsilon
// filter alone, the reference the fast accept must agree with.
func inSphereRef(a, b, c, d, e Vec3) int {
	ae, be, ce, de := a.Sub(e), b.Sub(e), c.Sub(e), d.Sub(e)
	a2, b2, c2, d2 := ae.Norm2(), be.Norm2(), ce.Norm2(), de.Norm2()
	det := a2*det3(be, ce, de) - b2*det3(ae, ce, de) +
		c2*det3(ae, be, de) - d2*det3(ae, be, ce)
	perm := a2*permDet3(be, ce, de) + b2*permDet3(ae, ce, de) +
		c2*permDet3(ae, be, de) + d2*permDet3(ae, be, ce)
	tol := epsUnit * perm
	switch {
	case det > tol:
		return 1
	case det < -tol:
		return -1
	default:
		return 0
	}
}

// The fast accept changes no sign: on random tuples, on exactly cospherical
// lattice tuples (the filter's zero case) and on those perturbed by 1e-15
// and more, InSphere equals the filter alone, and each kind of answer
// occurs.
func TestInSphereFastAcceptMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var seen [3]int
	check := func(a, b, c, d, e Vec3) {
		t.Helper()
		if Orient3DVal(a, b, c, d) < 0 {
			a, b = b, a
		}
		got, want := InSphere(a, b, c, d, e), inSphereRef(a, b, c, d, e)
		if got != want {
			t.Fatalf("InSphere(%v, %v, %v, %v, %v) = %d, filter alone %d", a, b, c, d, e, got, want)
		}
		seen[want+1]++
	}
	perturb := func(v Vec3, s float64) Vec3 {
		return V(v.X*(1+s*(2*rng.Float64()-1)), v.Y*(1+s*(2*rng.Float64()-1)), v.Z*(1+s*(2*rng.Float64()-1)))
	}
	lattice := func(n int, h float64, off Vec3) Vec3 {
		return off.Add(V(float64(rng.Intn(n)), float64(rng.Intn(n)), float64(rng.Intn(n))).Scale(h))
	}
	for i := 0; i < 20000; i++ {
		// Random tuples at the scales the pipelines use.
		s := []float64{1e-3, 1, 16, 128}[i%4]
		check(randVec(rng, s), randVec(rng, s), randVec(rng, s), randVec(rng, s), randVec(rng, s))

		// Lattice tuples: corners of one cube are exactly cospherical, and
		// a 3³ lattice mixes them with strict insides and outsides.
		h := []float64{0.5, 1, 0.125, 3}[i%4]
		off := V(float64(i%7), float64(i%5), float64(i%3)).Scale(h)
		var p [5]Vec3
		for k := range p {
			p[k] = lattice(2+i%2, h, off)
		}
		check(p[0], p[1], p[2], p[3], p[4])
		// Perturbed by 1e-15, and by sizes that put det near the filter's
		// tolerance, where a bound too low would accept a zero.
		q := p
		for k := range q {
			q[k] = perturb(p[k], 1e-15)
		}
		check(q[0], q[1], q[2], q[3], q[4])
		for k := range q {
			q[k] = perturb(p[k], []float64{1e-13, 1e-12, 1e-11}[i%3])
		}
		check(q[0], q[1], q[2], q[3], q[4])
	}
	for k, n := range seen {
		if n == 0 {
			t.Errorf("no tuple answered %d: %v", k-1, seen)
		}
	}
}
