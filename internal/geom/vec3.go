// Package geom provides the low-level 3D geometry kernel used by the
// tessellation stack: vectors, planes, axis-aligned boxes, and the robust-ish
// floating-point predicates (orientation, insphere, circumcenter) that the
// convex hull, Delaunay, and Voronoi packages are built on.
//
// All coordinates are float64. Predicates use an epsilon-scaled filter rather
// than exact arithmetic; the tolerance scales with the magnitude of the
// operands so that the same code is usable for unit boxes and for
// simulation-box coordinates in the hundreds of Mpc/h.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or vector in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the scalar product v . w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec3) Dist2(w Vec3) float64 { return v.Sub(w).Norm2() }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Mid returns the midpoint of v and w.
func (v Vec3) Mid(w Vec3) Vec3 {
	return Vec3{(v.X + w.X) / 2, (v.Y + w.Y) / 2, (v.Z + w.Z) / 2}
}

// Lerp returns v + t*(w-v).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{v.X + t*(w.X-v.X), v.Y + t*(w.Y-v.Y), v.Z + t*(w.Z-v.Z)}
}

// MaxAbs returns the largest absolute component of v.
func (v Vec3) MaxAbs() float64 {
	return math.Max(math.Abs(v.X), math.Max(math.Abs(v.Y), math.Abs(v.Z)))
}

// Component returns component i (0=X, 1=Y, 2=Z).
func (v Vec3) Component(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z)
}

// Centroid returns the arithmetic mean of the given points. It panics if
// pts is empty.
func Centroid(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}
