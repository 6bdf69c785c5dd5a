package geom

import "math"

// Box is an axis-aligned box [Min, Max] in R^3. A Box with any
// Min component greater than the corresponding Max component is empty.
type Box struct {
	Min, Max Vec3
}

// NewBox returns the box spanning the two corner points in any order.
func NewBox(a, b Vec3) Box {
	return Box{
		Min: Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)},
		Max: Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)},
	}
}

// Cube returns the axis-aligned cube centered at c with half-width h.
func Cube(c Vec3, h float64) Box {
	d := Vec3{h, h, h}
	return Box{Min: c.Sub(d), Max: c.Add(d)}
}

// BoundingBox returns the smallest box containing all points. It panics on
// an empty point set.
func BoundingBox(pts []Vec3) Box {
	if len(pts) == 0 {
		panic("geom: BoundingBox of empty point set")
	}
	b := Box{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		b = b.ExtendPoint(p)
	}
	return b
}

// Size returns the edge lengths of the box.
func (b Box) Size() Vec3 { return b.Max.Sub(b.Min) }

// Center returns the box center.
func (b Box) Center() Vec3 { return b.Min.Mid(b.Max) }

// Volume returns the box volume (0 for empty boxes).
func (b Box) Volume() float64 {
	s := b.Size()
	if s.X < 0 || s.Y < 0 || s.Z < 0 {
		return 0
	}
	return s.X * s.Y * s.Z
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Contains reports whether p lies inside or on the boundary of b.
func (b Box) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// ContainsOpen reports whether p lies strictly inside b.
func (b Box) ContainsOpen(p Vec3) bool {
	return p.X > b.Min.X && p.X < b.Max.X &&
		p.Y > b.Min.Y && p.Y < b.Max.Y &&
		p.Z > b.Min.Z && p.Z < b.Max.Z
}

// ExtendPoint returns the smallest box containing b and p.
func (b Box) ExtendPoint(p Vec3) Box {
	return Box{
		Min: Vec3{math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y), math.Min(b.Min.Z, p.Z)},
		Max: Vec3{math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y), math.Max(b.Max.Z, p.Z)},
	}
}

// Expand returns the box grown by d on every side (shrunk if d < 0).
func (b Box) Expand(d float64) Box {
	e := Vec3{d, d, d}
	return Box{Min: b.Min.Sub(e), Max: b.Max.Add(e)}
}

// Intersect returns the intersection of b and o (possibly empty).
func (b Box) Intersect(o Box) Box {
	return Box{
		Min: Vec3{math.Max(b.Min.X, o.Min.X), math.Max(b.Min.Y, o.Min.Y), math.Max(b.Min.Z, o.Min.Z)},
		Max: Vec3{math.Min(b.Max.X, o.Max.X), math.Min(b.Max.Y, o.Max.Y), math.Min(b.Max.Z, o.Max.Z)},
	}
}

// Corners returns the eight corners of the box.
func (b Box) Corners() [8]Vec3 {
	return [8]Vec3{
		{b.Min.X, b.Min.Y, b.Min.Z},
		{b.Max.X, b.Min.Y, b.Min.Z},
		{b.Max.X, b.Max.Y, b.Min.Z},
		{b.Min.X, b.Max.Y, b.Min.Z},
		{b.Min.X, b.Min.Y, b.Max.Z},
		{b.Max.X, b.Min.Y, b.Max.Z},
		{b.Max.X, b.Max.Y, b.Max.Z},
		{b.Min.X, b.Max.Y, b.Max.Z},
	}
}

// Dist2 returns the squared distance from p to the closest point of b
// (0 when p is inside).
func (b Box) Dist2(p Vec3) float64 {
	var d2 float64
	for i := 0; i < 3; i++ {
		c := p.Component(i)
		lo, hi := b.Min.Component(i), b.Max.Component(i)
		if c < lo {
			d2 += (lo - c) * (lo - c)
		} else if c > hi {
			d2 += (c - hi) * (c - hi)
		}
	}
	return d2
}

// InteriorDist returns the minimum distance from p to any face of b when p
// is inside the box; for points outside it returns a negative value whose
// magnitude is the Chebyshev penetration distance outside the box.
func (b Box) InteriorDist(p Vec3) float64 {
	d := math.Inf(1)
	for i := 0; i < 3; i++ {
		c := p.Component(i)
		d = math.Min(d, c-b.Min.Component(i))
		d = math.Min(d, b.Max.Component(i)-c)
	}
	return d
}
