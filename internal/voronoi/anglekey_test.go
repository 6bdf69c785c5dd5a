package voronoi

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// cmpAtan2 compares math.Atan2 of two directions, (y, x) each: -1, 0 or +1,
// or 2 when either is NaN.
func cmpAtan2(a, b [2]float64) int {
	p, q := math.Atan2(a[0], a[1]), math.Atan2(b[0], b[1])
	switch {
	case p != p || q != q:
		return 2
	case p < q:
		return -1
	case p > q:
		return 1
	}
	return 0
}

// cmpKey compares the angle keys of two directions the way the insertion
// sort does: +1 when a sorts after b, -1 when b sorts after a, 0 when
// neither does, and 2 when either key is NaN.
func cmpKey(a, b [2]float64) int {
	p, q := newAngleKey(a[0], a[1]), newAngleKey(b[0], b[1])
	switch {
	case p.q != p.q || q.q != q.q:
		if p.after(q) || q.after(p) {
			return 3 // a NaN key sorted: never right
		}
		return 2
	case p.after(q):
		return 1
	case q.after(p):
		return -1
	}
	return 0
}

// The angle key against math.Atan2 on the cases Atan2 treats specially
// that finite vertices can give, and on directions an ulp apart. want is the key's comparison of a with b;
// split marks the pairs Atan2 gives one value although they are different
// directions, which the key tells apart by their exact quotient.
func TestAngleKeyTable(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	up := func(x float64) float64 { return math.Nextafter(x, inf) }
	for _, c := range []struct {
		name  string
		a, b  [2]float64
		want  int
		split bool
	}{
		{"y = +0 with x < 0 is +π, y = -0 is -π", [2]float64{0, -1}, [2]float64{negZero, -1}, 1, false},
		{"y = -0 with x < 0 sorts first", [2]float64{negZero, -1}, [2]float64{-1, -1e-300}, -1, false},
		{"y = +0 with x < 0 sorts last", [2]float64{0, -1}, [2]float64{1, -1e300}, 1, true},
		{"y = ±0 with x > 0 is ±0, one angle", [2]float64{0, 1}, [2]float64{negZero, 2}, 0, false},
		{"x = +0 and x = -0 are π/2", [2]float64{1, 0}, [2]float64{3, negZero}, 0, false},
		{"x = ±0 with y < 0 is -π/2", [2]float64{-1, 0}, [2]float64{-3, negZero}, 0, false},
		{"(+0, +0) is 0", [2]float64{0, 0}, [2]float64{0, 1}, 0, false},
		{"(-0, +0) is -0", [2]float64{negZero, 0}, [2]float64{0, 1}, 0, false},
		{"(+0, -0) is π", [2]float64{0, negZero}, [2]float64{0, -1}, 0, false},
		{"(-0, -0) is -π", [2]float64{negZero, negZero}, [2]float64{negZero, -1}, 0, false},
		{"NaN y", [2]float64{nan, 1}, [2]float64{0, 1}, 2, false},
		{"NaN x", [2]float64{1, nan}, [2]float64{1, 1}, 2, false},
		{"both NaN", [2]float64{nan, nan}, [2]float64{nan, -1}, 2, false},
		{"an ulp apart at π/4", [2]float64{1, 1}, [2]float64{up(1), 1}, -1, false},
		{"an ulp apart near 0", [2]float64{5e-324, 1}, [2]float64{1e-323, 1}, -1, false},
		{"an ulp apart near -π/2", [2]float64{-1, 1e-300}, [2]float64{-1, up(1e-300)}, -1, true},
		{"an ulp apart near π", [2]float64{1e-300, -1}, [2]float64{up(1e-300), -1}, 1, true},
		{"an underflowed quotient takes Atan2's +π", [2]float64{-1e-300, -1e300}, [2]float64{0, -1}, 0, false},
		{"an overflowed quotient is π/2", [2]float64{1e300, 1e-300}, [2]float64{1, 0}, 0, false},
	} {
		got, atan := cmpKey(c.a, c.b), cmpAtan2(c.a, c.b)
		if got != c.want {
			t.Errorf("%s: key comparison %d, want %d", c.name, got, c.want)
		}
		if c.split && atan != 0 || !c.split && atan != c.want {
			t.Errorf("%s: Atan2 comparison %d (split %v), key %d", c.name, atan, c.split, c.want)
		}
	}
}

// Over every pair of a set of directions — Atan2's special finite values
// and NaN in both components, random directions in every octant and their neighbours an
// ulp away in either component — the key never sorts a pair against
// Atan2, gives one key only to directions Atan2 gives one angle, and is
// NaN exactly where Atan2 is.
func TestAngleKeyRefinesAtan2(t *testing.T) {
	rng := rand.New(rand.NewSource(1704))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 1, -1, 3, -3,
		1e300, -1e300, math.NaN()}
	var dirs [][2]float64
	for _, y := range specials {
		for _, x := range specials {
			dirs = append(dirs, [2]float64{y, x})
		}
	}
	for range 200 {
		y, x := rng.NormFloat64(), rng.NormFloat64()
		if rng.Intn(4) == 0 {
			x *= 1e-9 // near ±π/2
		}
		dirs = append(dirs, [2]float64{y, x},
			[2]float64{math.Nextafter(y, math.Inf(1)), x}, [2]float64{y, math.Nextafter(x, math.Inf(-1))})
	}
	splits := 0
	for _, a := range dirs {
		for _, b := range dirs {
			key, atan := cmpKey(a, b), cmpAtan2(a, b)
			switch {
			case key == 3:
				t.Fatalf("%v, %v: a NaN key sorted", a, b)
			case (key == 2) != (atan == 2):
				t.Fatalf("%v, %v: key comparison %d, Atan2 %d: NaN in one only", a, b, key, atan)
			case atan != 0 && key != atan:
				t.Fatalf("%v, %v: key comparison %d against Atan2's %d", a, b, key, atan)
			case atan == 0 && key != 0:
				splits++
			}
		}
	}
	t.Logf("%d directions; %d ordered pairs Atan2 ties and the key splits", len(dirs), splits)
}

// The angle key stands for atan(q) by q itself, so it needs math.Atan
// monotone; its polynomial is pieced together at 0.66 and tan(3π/8), where
// a rounding step could go backwards. Every float within 2^16 ulps of
// either branch point, of ±1 and of a small and a large argument keeps
// Atan non-decreasing.
func TestAtanMonotoneAtBranches(t *testing.T) {
	for _, x0 := range []float64{0.66, 2.41421356237309504880, 1, 1e-8, 1e8, -0.66, -2.41421356237309504880, -1} {
		x := x0
		for range 1 << 16 {
			x = math.Nextafter(x, math.Inf(-1))
		}
		prev := math.Atan(x)
		for range 1 << 17 {
			x = math.Nextafter(x, math.Inf(1))
			if a := math.Atan(x); a < prev {
				t.Fatalf("Atan(%v) = %v is below Atan of the float before it, %v", x, a, prev)
			} else {
				prev = a
			}
		}
	}
}

// orderLoop puts every cut polygon in the permutation, start vertex
// included, that the Atan2 ordering of the reference kernel gives: random
// and regular polygons in random planes, lattice squares, hexagons and
// crosses in axis planes (directions on the branch cut and on the axes;
// the cross has two vertices on each ray from its exact centroid, ties
// both orders keep in discovery order), near-ties and repeated vertices.
func TestOrderLoopMatchesAtan2(t *testing.T) {
	rng := rand.New(rand.NewSource(1705))
	var w sweep
	var rs refScratch
	check := func(name string, verts []geom.Vec3, normal geom.Vec3) {
		t.Helper()
		idx := make([]int, len(verts))
		for i := range idx {
			idx[i] = i
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		got, want := slices.Clone(idx), slices.Clone(idx)
		w.orderLoop(verts, got, normal)
		rs.orderLoop(verts, want, normal)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: order %v, Atan2's %v (discovery order %v)", name, got, want, idx)
		}
	}
	randUnit := func() geom.Vec3 {
		return geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
	}
	axes := []geom.Vec3{geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(0, 0, 1), geom.V(-1, 0, 0), geom.V(0, -1, 0), geom.V(0, 0, -1)}
	for trial := range 3000 {
		n := randUnit()
		e1 := n.Cross(geom.V(1, 0, 0))
		if e1.Norm() < 0.1 {
			e1 = n.Cross(geom.V(0, 1, 0))
		}
		e1 = e1.Normalize()
		e2 := n.Cross(e1)
		o := geom.V(rng.Float64(), rng.Float64(), rng.Float64()).Scale(10)
		k := 3 + rng.Intn(10)
		var random, regular, collinear []geom.Vec3
		for i := range k {
			a, r := rng.Float64()*2*math.Pi, 0.1+rng.Float64()
			random = append(random, o.Add(e1.Scale(r*math.Cos(a))).Add(e2.Scale(r*math.Sin(a))))
			b := 2 * math.Pi * float64(i) / float64(k)
			regular = append(regular, o.Add(e1.Scale(math.Cos(b))).Add(e2.Scale(math.Sin(b))))
			// Pairs of vertices on one ray from the polygon's centre o,
			// which is the centroid up to rounding: near-ties.
			collinear = append(collinear, o.Add(e1.Scale(float64(1+i%2)*math.Cos(b))).Add(e2.Scale(float64(1+i%2)*math.Sin(b))))
		}
		check("random", random, n)
		check("regular", regular, n.Scale(-1))
		check("collinear", collinear, n)
		check("repeated", append(random, random[:1+rng.Intn(k)]...), n)

		// Lattice polygons in an axis plane: a square and a hexagon of a
		// unit lattice, so directions fall exactly on the basis axes and the
		// branch cut.
		ax, u, v := axes[trial%len(axes)], axes[(trial+1)%3], axes[(trial+2)%3]
		c := geom.V(float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5)))
		square := []geom.Vec3{c, c.Add(u), c.Add(u).Add(v), c.Add(v)}
		hexagon := []geom.Vec3{c.Add(u), c.Add(u).Add(v), c.Add(v), c.Sub(u), c.Sub(u).Sub(v), c.Sub(v)}
		// Two vertices on each half-axis around an exact centroid: exact
		// ties, on the branch cut among them.
		cross := []geom.Vec3{c.Add(u), c.Add(v.Scale(2)), c.Sub(u.Scale(2)), c.Sub(v), c.Add(u.Scale(2)), c.Sub(u), c.Add(v), c.Sub(v.Scale(2))}
		check("lattice square", square, ax)
		check("lattice hexagon", hexagon, ax)
		check("lattice cross", cross, ax)
	}
}
