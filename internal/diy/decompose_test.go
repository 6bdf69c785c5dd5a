package diy

import (
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
