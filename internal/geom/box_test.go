package geom

import (
	"math/rand"
	"testing"
)

func TestNewBoxOrdersCorners(t *testing.T) {
	b := NewBox(V(3, -1, 2), V(0, 4, -5))
	if b.Min != V(0, -1, -5) || b.Max != V(3, 4, 2) {
		t.Errorf("NewBox = %+v", b)
	}
}

func TestCube(t *testing.T) {
	b := Cube(V(1, 1, 1), 2)
	if b.Min != V(-1, -1, -1) || b.Max != V(3, 3, 3) {
		t.Errorf("Cube = %+v", b)
	}
	if b.Volume() != 64 {
		t.Errorf("Volume = %v", b.Volume())
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Vec3{V(1, 2, 3), V(-1, 5, 0), V(2, 2, 2)}
	b := BoundingBox(pts)
	if b.Min != V(-1, 2, 0) || b.Max != V(2, 5, 3) {
		t.Errorf("BoundingBox = %+v", b)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("bounding box does not contain %v", p)
		}
	}
}

func TestBoxContains(t *testing.T) {
	b := NewBox(V(0, 0, 0), V(1, 1, 1))
	if !b.Contains(V(0, 0.5, 1)) {
		t.Error("boundary point should be contained")
	}
	if b.ContainsOpen(V(0, 0.5, 1)) {
		t.Error("boundary point should not be strictly inside")
	}
	if !b.ContainsOpen(V(0.5, 0.5, 0.5)) {
		t.Error("center should be strictly inside")
	}
	if b.Contains(V(1.0001, 0.5, 0.5)) {
		t.Error("outside point reported contained")
	}
}

func TestBoxIntersectOverlap(t *testing.T) {
	a := NewBox(V(0, 0, 0), V(2, 2, 2))
	b := NewBox(V(1, 1, 1), V(3, 3, 3))
	c := a.Intersect(b)
	if c.Min != V(1, 1, 1) || c.Max != V(2, 2, 2) {
		t.Errorf("Intersect = %+v", c)
	}
	if c.Empty() {
		t.Error("intersection of overlapping boxes reported empty")
	}
	d := NewBox(V(5, 5, 5), V(6, 6, 6))
	if !a.Intersect(d).Empty() {
		t.Error("intersection of disjoint boxes should be empty")
	}
	if a.Intersect(d).Volume() != 0 {
		t.Error("empty box should have zero volume")
	}
}

func TestBoxExpand(t *testing.T) {
	b := NewBox(V(0, 0, 0), V(1, 1, 1)).Expand(0.5)
	if b.Min != V(-0.5, -0.5, -0.5) || b.Max != V(1.5, 1.5, 1.5) {
		t.Errorf("Expand = %+v", b)
	}
	if got := NewBox(V(0, 0, 0), V(1, 1, 1)).Expand(-0.6); !got.Empty() {
		t.Error("over-shrunk box should be empty")
	}
}

func TestBoxCorners(t *testing.T) {
	b := NewBox(V(0, 0, 0), V(1, 2, 3))
	seen := map[Vec3]bool{}
	for _, c := range b.Corners() {
		if !b.Contains(c) {
			t.Errorf("corner %v not contained", c)
		}
		seen[c] = true
	}
	if len(seen) != 8 {
		t.Errorf("expected 8 distinct corners, got %d", len(seen))
	}
}

func TestBoxDist2(t *testing.T) {
	b := NewBox(V(0, 0, 0), V(1, 1, 1))
	if d := b.Dist2(V(0.5, 0.5, 0.5)); d != 0 {
		t.Errorf("inside Dist2 = %v", d)
	}
	if d := b.Dist2(V(2, 0.5, 0.5)); d != 1 {
		t.Errorf("face Dist2 = %v, want 1", d)
	}
	if d := b.Dist2(V(2, 2, 2)); d != 3 {
		t.Errorf("corner Dist2 = %v, want 3", d)
	}
}

func TestInteriorDist(t *testing.T) {
	b := NewBox(V(0, 0, 0), V(10, 10, 10))
	if d := b.InteriorDist(V(3, 5, 5)); d != 3 {
		t.Errorf("InteriorDist = %v, want 3", d)
	}
	if d := b.InteriorDist(V(-2, 5, 5)); d != -2 {
		t.Errorf("outside InteriorDist = %v, want -2", d)
	}
}

func TestBoxDist2LowerBoundsPointDist(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBox(V(0, 0, 0), V(1, 1, 1))
	for i := 0; i < 500; i++ {
		p := V(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2)
		q := V(rng.Float64(), rng.Float64(), rng.Float64()) // inside b
		if b.Dist2(p) > p.Dist2(q)+1e-12 {
			t.Fatalf("Dist2(%v)=%v exceeds distance to interior point %v (%v)",
				p, b.Dist2(p), q, p.Dist2(q))
		}
	}
}
