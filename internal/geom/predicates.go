package geom

import "math"

// InSphere uses a scaled-epsilon filter: the raw determinant is compared
// against a tolerance proportional to a bound on its roundoff error,
// derived from the magnitude of the operands. Values within the tolerance
// are reported as zero (degenerate). This is not exact arithmetic,
// but for the perturbed lattice and random inputs used throughout this
// repository it is robust in practice, and all downstream algorithms treat
// the zero case conservatively.

const epsUnit = 1e-12

// Orient3DVal returns the raw signed 6x(volume of tetrahedron abcd)
// determinant (b-a) x (c-a) . (d-a) without the tolerance filter. It is
// positive exactly when d lies on the positive side of the plane through
// a, b, c (counterclockwise when viewed from that side).
func Orient3DVal(a, b, c, d Vec3) float64 {
	return det3(b.Sub(a), c.Sub(a), d.Sub(a))
}

// InSphere returns +1 if point e lies strictly inside the circumsphere of
// the positively oriented tetrahedron (a,b,c,d), -1 if strictly outside,
// and 0 if on the sphere within tolerance. The tetrahedron must satisfy
// Orient3DVal(a,b,c,d) > 0; callers are responsible for orientation.
func InSphere(a, b, c, d, e Vec3) int {
	ae, be, ce, de := a.Sub(e), b.Sub(e), c.Sub(e), d.Sub(e)
	a2, b2, c2, d2 := ae.Norm2(), be.Norm2(), ce.Norm2(), de.Norm2()

	// 4x4 determinant | ae a2; be b2; ce c2; de d2 | expanded along the
	// last column.
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

func det3(u, v, w Vec3) float64 {
	return u.X*(v.Y*w.Z-v.Z*w.Y) - u.Y*(v.X*w.Z-v.Z*w.X) + u.Z*(v.X*w.Y-v.Y*w.X)
}

func permDet3(u, v, w Vec3) float64 {
	return math.Abs(u.X)*(math.Abs(v.Y)*math.Abs(w.Z)+math.Abs(v.Z)*math.Abs(w.Y)) +
		math.Abs(u.Y)*(math.Abs(v.X)*math.Abs(w.Z)+math.Abs(v.Z)*math.Abs(w.X)) +
		math.Abs(u.Z)*(math.Abs(v.X)*math.Abs(w.Y)+math.Abs(v.Y)*math.Abs(w.X))
}

// Circumcenter returns the center of the sphere through the four points of
// a non-degenerate tetrahedron, and true; for a degenerate (near-coplanar)
// tetrahedron it returns the centroid and false.
func Circumcenter(a, b, c, d Vec3) (Vec3, bool) {
	// Solve 2*(p_i - a) . x = |p_i|^2 - |a|^2 for i in {b, c, d}, relative
	// to a for conditioning.
	ba, ca, da := b.Sub(a), c.Sub(a), d.Sub(a)
	den := 2 * det3(ba, ca, da)
	scale := ba.MaxAbs() * ca.MaxAbs() * da.MaxAbs()
	if math.Abs(den) <= 1e-14*scale || den == 0 {
		return Centroid([]Vec3{a, b, c, d}), false
	}
	b2, c2, d2 := ba.Norm2(), ca.Norm2(), da.Norm2()
	x := b2*(ca.Y*da.Z-ca.Z*da.Y) + c2*(da.Y*ba.Z-da.Z*ba.Y) + d2*(ba.Y*ca.Z-ba.Z*ca.Y)
	y := b2*(ca.Z*da.X-ca.X*da.Z) + c2*(da.Z*ba.X-da.X*ba.Z) + d2*(ba.Z*ca.X-ba.X*ca.Z)
	z := b2*(ca.X*da.Y-ca.Y*da.X) + c2*(da.X*ba.Y-da.Y*ba.X) + d2*(ba.X*ca.Y-ba.Y*ca.X)
	return a.Add(Vec3{x / den, y / den, z / den}), true
}

// TetVolume returns the (positive) volume of tetrahedron abcd.
func TetVolume(a, b, c, d Vec3) float64 {
	return math.Abs(Orient3DVal(a, b, c, d)) / 6
}

// TriangleArea returns the area of triangle abc.
func TriangleArea(a, b, c Vec3) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Norm() / 2
}

// PolygonArea returns the area of a planar polygon given by its vertex loop.
// Non-planar loops give the area of the fan triangulation from the first
// vertex.
func PolygonArea(loop []Vec3) float64 {
	if len(loop) < 3 {
		return 0
	}
	var area float64
	for i := 1; i+1 < len(loop); i++ {
		area += TriangleArea(loop[0], loop[i], loop[i+1])
	}
	return area
}

// PolygonNormal returns the (unnormalized) Newell normal of a polygon loop.
func PolygonNormal(loop []Vec3) Vec3 {
	var n Vec3
	for i := range loop {
		p, q := loop[i], loop[(i+1)%len(loop)]
		n.X += (p.Y - q.Y) * (p.Z + q.Z)
		n.Y += (p.Z - q.Z) * (p.X + q.X)
		n.Z += (p.X - q.X) * (p.Y + q.Y)
	}
	return n
}
