package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return a.Sub(b).MaxAbs() <= tol
}

func TestVecArithmetic(t *testing.T) {
	a := V(1, 2, 3)
	b := V(-4, 5, 0.5)
	if got := a.Add(b); got != V(-3, 7, 3.5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(5, -3, 2.5) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != V(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Dot(b); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
			return true
		}
		return math.Abs(c.Dot(a)) <= 1e-9*scale*c.Norm()/math.Max(c.Norm(), 1) &&
			math.Abs(c.Dot(b)) <= 1e-9*scale*math.Max(c.Norm(), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCrossBasis(t *testing.T) {
	x, y, z := V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)
	if x.Cross(y) != z {
		t.Errorf("x cross y = %v, want z", x.Cross(y))
	}
	if y.Cross(z) != x {
		t.Errorf("y cross z = %v, want x", y.Cross(z))
	}
	if z.Cross(x) != y {
		t.Errorf("z cross x = %v, want y", z.Cross(x))
	}
}

func TestNormAndDist(t *testing.T) {
	if got := V(3, 4, 0).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := V(1, 1, 1).Norm2(); got != 3 {
		t.Errorf("Norm2 = %v, want 3", got)
	}
	if got := V(1, 0, 0).Dist(V(1, 3, 4)); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestNormalize(t *testing.T) {
	v := V(0, -7, 0).Normalize()
	if v != V(0, -1, 0) {
		t.Errorf("Normalize = %v", v)
	}
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Errorf("Normalize zero = %v", z)
	}
	f := func(x, y, z float64) bool {
		v := V(x, y, z)
		if !v.IsFinite() || v.Norm() == 0 || v.Norm() > 1e150 {
			return true
		}
		return almostEq(v.Normalize().Norm(), 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestMidLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(2, 4, 6)
	if got := a.Mid(b); got != V(1, 2, 3) {
		t.Errorf("Mid = %v", got)
	}
	if got := a.Lerp(b, 0.25); got != V(0.5, 1, 1.5) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestComponentAccess(t *testing.T) {
	v := V(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Component(i); got != want {
			t.Errorf("Component(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestMaxAbs(t *testing.T) {
	if got := V(-5, 2, 3).MaxAbs(); got != 5 {
		t.Errorf("MaxAbs = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !V(1, 2, 3).IsFinite() {
		t.Error("finite vector reported as non-finite")
	}
	if V(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestCentroid(t *testing.T) {
	pts := []Vec3{V(0, 0, 0), V(2, 0, 0), V(0, 2, 0), V(0, 0, 2)}
	if got := Centroid(pts); got != V(0.5, 0.5, 0.5) {
		t.Errorf("Centroid = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Centroid of empty set did not panic")
		}
	}()
	Centroid(nil)
}
