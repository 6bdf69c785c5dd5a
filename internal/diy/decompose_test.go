package diy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func unitDomain(L float64) geom.Box {
	return geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L))
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(unitDomain(1), 0, true); err == nil {
		t.Error("0 blocks accepted")
	}
	if _, err := Decompose(geom.Box{Min: geom.V(1, 0, 0), Max: geom.V(0, 1, 1)}, 4, true); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		4:  {2, 2, 1},
		8:  {2, 2, 2},
		6:  {3, 2, 1},
		12: {3, 2, 2},
		27: {3, 3, 3},
		64: {4, 4, 4},
	}
	cube := geom.V(1, 1, 1)
	for n, want := range cases {
		got := factor3(n, cube)
		if got != want {
			t.Errorf("factor3(%d) = %v, want %v", n, got, want)
		}
		if got[0]*got[1]*got[2] != n {
			t.Errorf("factor3(%d) product mismatch", n)
		}
	}
	// Primes degrade gracefully to slabs.
	if got := factor3(7, cube); got != [3]int{7, 1, 1} {
		t.Errorf("factor3(7) = %v", got)
	}
}

func TestFactor3AnisotropicOrientation(t *testing.T) {
	// Prime counts force slabs; the slabs must cut the longest axis so that
	// block surface area (ghost-exchange cost) stays minimal, instead of
	// always stacking along x.
	cases := []struct {
		n    int
		size geom.Vec3
		want [3]int
	}{
		{7, geom.V(100, 10, 10), [3]int{7, 1, 1}},
		{7, geom.V(10, 100, 10), [3]int{1, 7, 1}},
		{7, geom.V(10, 10, 100), [3]int{1, 1, 7}},
		{5, geom.V(10, 10, 100), [3]int{1, 1, 5}},
		// Composite counts orient their factors by aspect ratio too: 12
		// blocks in a 4:2:1 domain come out near-cubic (6.67x10x10), not
		// the cube-count layout {3,2,2} (13.3x10x5).
		{12, geom.V(40, 20, 10), [3]int{6, 2, 1}},
		{6, geom.V(10, 10, 100), [3]int{1, 1, 6}},
	}
	for _, c := range cases {
		if got := factor3(c.n, c.size); got != c.want {
			t.Errorf("factor3(%d, %v) = %v, want %v", c.n, c.size, got, c.want)
		}
	}
}

func TestDecomposePartitionsDomain(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 12, 16, 27} {
		d, err := Decompose(unitDomain(10), n, true)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumBlocks() != n {
			t.Fatalf("n=%d: NumBlocks = %d", n, d.NumBlocks())
		}
		var vol float64
		for r := 0; r < n; r++ {
			b := d.Block(r)
			if b.Rank != r {
				t.Fatalf("block %d has Rank %d", r, b.Rank)
			}
			vol += b.Bounds.Volume()
		}
		if math.Abs(vol-1000) > 1e-9 {
			t.Fatalf("n=%d: blocks cover volume %v, want 1000", n, vol)
		}
	}
}

func TestLocateConsistency(t *testing.T) {
	d, err := Decompose(unitDomain(8), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		p := geom.V(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8)
		r := d.Locate(p)
		if !d.Block(r).Bounds.Contains(p) {
			t.Fatalf("Locate(%v) = %d but block bounds %+v do not contain it",
				p, r, d.Block(r).Bounds)
		}
	}
	// Boundary points.
	if r := d.Locate(geom.V(0, 0, 0)); r != 0 {
		t.Errorf("origin in block %d", r)
	}
	r := d.Locate(geom.V(8, 8, 8))
	if r != d.NumBlocks()-1 {
		t.Errorf("far corner in block %d", r)
	}
}

// TestGridIsSplitTree holds Decompose's split tree to the regular grid's
// definition: block (i, j, k) of the factor3 grid is the box between the
// planes Min + i·step and Min + (i+1)·step on every axis, its outer faces
// are the domain's own, ranks run x-fastest, and a point belongs to the
// block whose bounds hold it half-open (Min <= p < Max), the domain's high
// faces closed. Locate must agree with a brute-force search of the blocks
// on random points, on points exactly on every cut plane (and one ulp
// below it), and on points on the domain's high faces.
func TestGridIsSplitTree(t *testing.T) {
	domains := map[string]geom.Box{
		"cube":       unitDomain(10),
		"slab":       geom.NewBox(geom.V(0, 0, 0), geom.V(100, 10, 10)),
		"off-origin": geom.NewBox(geom.V(-7.3, 2.9, 101.7), geom.V(5.1, 17.3, 110.3)),
	}
	for _, name := range []string{"cube", "slab", "off-origin"} {
		dom := domains[name]
		for _, periodic := range []bool{true, false} {
			for n := 1; n <= 64; n++ {
				d, err := Decompose(dom, n, periodic)
				if err != nil {
					t.Fatal(err)
				}
				checkGridTree(t, fmt.Sprintf("%s periodic=%v n=%d", name, periodic, n), d, n)
			}
		}
	}
}

func checkGridTree(t *testing.T, label string, d *Decomposition, n int) {
	t.Helper()
	dom := d.Domain
	dims := factor3(n, dom.Size())
	size := dom.Size()
	step := [3]float64{size.X / float64(dims[0]), size.Y / float64(dims[1]), size.Z / float64(dims[2])}
	// plane is the grid's closed form for the i-th plane on axis a.
	plane := func(a, i int) float64 {
		switch i {
		case 0:
			return dom.Min.Component(a)
		case dims[a]:
			return dom.Max.Component(a)
		}
		return dom.Min.Component(a) + float64(i)*step[a]
	}
	if d.NumBlocks() != n || d.Cuts() != nil {
		t.Fatalf("%s: %d blocks, cuts %v; want %d blocks and no cuts", label, d.NumBlocks(), d.Cuts(), n)
	}
	for r := 0; r < n; r++ {
		c := [3]int{r % dims[0], r / dims[0] % dims[1], r / (dims[0] * dims[1])} // x-fastest
		var want geom.Box
		for a, i := range c {
			lo, hi := plane(a, i), plane(a, i+1)
			switch a {
			case 0:
				want.Min.X, want.Max.X = lo, hi
			case 1:
				want.Min.Y, want.Max.Y = lo, hi
			default:
				want.Min.Z, want.Max.Z = lo, hi
			}
		}
		if b := d.Block(r); b.Rank != r || b.Bounds != want {
			t.Fatalf("%s: block %d is rank %d with bounds %+v, want grid cell %v = %+v",
				label, r, b.Rank, b.Bounds, c, want)
		}
	}

	// owner is the brute-force ownership rule.
	owner := func(p geom.Vec3) int {
		found := -1
		for r := 0; r < n; r++ {
			b := d.Block(r).Bounds
			in := true
			for a := 0; a < 3; a++ {
				x, lo, hi := p.Component(a), b.Min.Component(a), b.Max.Component(a)
				in = in && lo <= x && (x < hi || x == hi && hi == dom.Max.Component(a))
			}
			if in {
				if found >= 0 {
					t.Fatalf("%s: point %v owned by blocks %d and %d", label, p, found, r)
				}
				found = r
			}
		}
		if found < 0 {
			t.Fatalf("%s: point %v owned by no block", label, p)
		}
		return found
	}
	rng := rand.New(rand.NewSource(int64(n)))
	random := func() [3]float64 {
		var p [3]float64
		for a := range p {
			p[a] = dom.Min.Component(a) + rng.Float64()*size.Component(a)
		}
		return p
	}
	var probes [][3]float64
	for i := 0; i < 64; i++ {
		probes = append(probes, random())
	}
	for a := 0; a < 3; a++ {
		for i := 1; i <= dims[a]; i++ {
			for _, x := range []float64{plane(a, i), math.Nextafter(plane(a, i), math.Inf(-1))} {
				p := random()
				p[a] = x
				probes = append(probes, p)
			}
		}
	}
	hi := dom.Max
	probes = append(probes, [3]float64{hi.X, hi.Y, hi.Z})
	for _, p := range probes {
		q := geom.V(p[0], p[1], p[2])
		if got, want := d.Locate(q), owner(q); got != want {
			t.Fatalf("%s: Locate(%v) = %d, want %d", label, q, got, want)
		}
	}
}
