package geom

import (
	"math"
	"math/rand"
	"testing"
)

// NewPlane returns the plane through point p with unit normal in the
// direction of n.
func NewPlane(n, p Vec3) Plane {
	u := n.Normalize()
	return Plane{N: u, D: -u.Dot(p)}
}

func TestNewPlane(t *testing.T) {
	pl := NewPlane(V(0, 0, 2), V(1, 1, 5))
	if !almostEq(pl.Eval(V(0, 0, 5)), 0, 1e-12) {
		t.Errorf("point on plane has Eval = %v", pl.Eval(V(0, 0, 5)))
	}
	if !almostEq(pl.Eval(V(3, -2, 8)), 3, 1e-12) {
		t.Errorf("Eval above plane = %v, want 3", pl.Eval(V(3, -2, 8)))
	}
}

func TestPlaneFromPoints(t *testing.T) {
	a, b, c := V(0, 0, 1), V(1, 0, 1), V(0, 1, 1)
	pl := PlaneFromPoints(a, b, c)
	if !vecAlmostEq(pl.N, V(0, 0, 1), 1e-12) {
		t.Errorf("normal = %v", pl.N)
	}
	for _, p := range []Vec3{a, b, c} {
		if !almostEq(pl.Eval(p), 0, 1e-12) {
			t.Errorf("defining point %v has Eval %v", p, pl.Eval(p))
		}
	}
	if !PlaneFromPoints(a, a, c).Degenerate() {
		t.Error("collinear points should yield degenerate plane")
	}
}

func TestBisectorOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		b := V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		if a.Dist(b) < 1e-9 {
			continue
		}
		pl := Bisector(a, b)
		if pl.Eval(a) >= 0 {
			t.Fatalf("a on wrong side: %v", pl.Eval(a))
		}
		if pl.Eval(b) <= 0 {
			t.Fatalf("b on wrong side: %v", pl.Eval(b))
		}
		m := a.Mid(b)
		if !almostEq(pl.Eval(m), 0, 1e-9) {
			t.Fatalf("midpoint not on bisector: %v", pl.Eval(m))
		}
		// Bisector property: equidistance for points on the plane.
		q := V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		p := q.Sub(pl.N.Scale(pl.Eval(q))) // orthogonal projection onto the plane
		if !almostEq(p.Dist(a), p.Dist(b), 1e-7) {
			t.Fatalf("projected point not equidistant: %v vs %v", p.Dist(a), p.Dist(b))
		}
	}
}

func TestPlaneFlip(t *testing.T) {
	pl := NewPlane(V(1, 0, 0), V(2, 0, 0))
	fl := pl.Flip()
	p := V(5, 1, 1)
	if !almostEq(pl.Eval(p), -fl.Eval(p), 1e-12) {
		t.Errorf("flip did not negate Eval: %v vs %v", pl.Eval(p), fl.Eval(p))
	}
}

func TestPlaneEvalIsMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		n := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if n.Norm() < 1e-6 {
			continue
		}
		p0 := V(rng.Float64(), rng.Float64(), rng.Float64())
		pl := NewPlane(n, p0)
		d := rng.Float64()*4 - 2
		p := p0.Add(n.Normalize().Scale(d))
		if math.Abs(pl.Eval(p)-d) > 1e-9 {
			t.Fatalf("Eval = %v, want %v", pl.Eval(p), d)
		}
	}
}
