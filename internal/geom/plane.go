package geom

// Plane is an oriented plane in Hessian-like form: the set of points x with
// N.Dot(x) + D == 0. N need not be unit length; signed "distances" returned
// by Eval are scaled by |N| accordingly. Callers that need metric distances
// should construct planes with unit normals.
type Plane struct {
	N Vec3    // normal
	D float64 // offset
}

// PlaneFromPoints returns the plane through three points with normal
// (b-a) x (c-a), normalized. Degenerate (collinear) triples yield a plane
// with zero normal; callers should check Degenerate.
func PlaneFromPoints(a, b, c Vec3) Plane {
	n := b.Sub(a).Cross(c.Sub(a))
	ln := n.Norm()
	if ln == 0 {
		return Plane{}
	}
	n = n.Scale(1 / ln)
	return Plane{N: n, D: -n.Dot(a)}
}

// Bisector returns the perpendicular bisector plane between points a and b,
// oriented so that a is on the negative side (Eval(a) < 0) and b on the
// positive side. This is the half-space orientation used for Voronoi cell
// clipping: the cell of a keeps the region where Eval <= 0.
func Bisector(a, b Vec3) Plane {
	n := b.Sub(a).Normalize()
	m := a.Mid(b)
	return Plane{N: n, D: -n.Dot(m)}
}

// Eval returns the signed distance of p from the plane (exact metric distance
// when N is unit length, which holds for all constructors in this package).
func (pl Plane) Eval(p Vec3) float64 {
	return pl.N.Dot(p) + pl.D
}

// Degenerate reports whether the plane has an (effectively) zero normal.
func (pl Plane) Degenerate() bool {
	return pl.N.Norm2() < 1e-300
}

// Flip returns the plane with reversed orientation.
func (pl Plane) Flip() Plane {
	return Plane{N: pl.N.Neg(), D: -pl.D}
}
