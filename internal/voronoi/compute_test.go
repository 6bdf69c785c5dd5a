package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
	"repro/internal/qhull"
)

func seqIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// computeCell builds the cell of site into a pool of its own, so that the
// cell stays valid for as long as the test holds it. A nil s is a fresh
// Scratch.
func computeCell(ix *Index, site geom.Vec3, id int64, initBox geom.Box, s *Scratch) (*Cell, error) {
	if s == nil {
		s = NewScratch()
	}
	return ComputeCellPooled(ix, site, id, initBox, s, new(CellPool))
}

// periodicCells is the periodic tessellation of pts in [0, L)^3, built as
// one block with a ghost of L/2: cell i is the cell of pts[i].
func periodicCells(t *testing.T, pts []geom.Vec3, L float64) []*Cell {
	t.Helper()
	in := periodicBlock("periodic", pts, L, 0, L, L/2)
	if in.sites != len(pts) {
		t.Fatalf("%d of %d points inside [0, %g)^3", in.sites, len(pts), L)
	}
	s := NewScratch()
	cells := make([]*Cell, in.sites)
	for i := range cells {
		c, err := computeCell(in.ix, in.ix.pts[i], in.ix.ids[i], in.initBox, s)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		cells[i] = c
	}
	return cells
}

func latticePts(n int, L float64) []geom.Vec3 {
	h := L / float64(n)
	var pts []geom.Vec3
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pts = append(pts, geom.V(
					(float64(x)+0.5)*h, (float64(y)+0.5)*h, (float64(z)+0.5)*h))
			}
		}
	}
	return pts
}

func perturbedLattice(rng *rand.Rand, n int, L, amp float64) []geom.Vec3 {
	pts := latticePts(n, L)
	h := L / float64(n)
	for i := range pts {
		pts[i] = pts[i].Add(geom.V(
			(rng.Float64()-0.5)*amp*h,
			(rng.Float64()-0.5)*amp*h,
			(rng.Float64()-0.5)*amp*h))
	}
	return pts
}

func TestIndexShellCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts := make([]geom.Vec3, 300)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
	}
	ix := NewIndex(pts, seqIDs(len(pts)), 0)
	// Union of all shells covers every point exactly once.
	q := pts[42]
	seen := map[int]int{}
	for s := 0; s <= ix.MaxShell(q); s++ {
		for _, sp := range ix.Shell(q, s) {
			seen[sp.Idx]++
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("shells covered %d of %d points", len(seen), len(pts))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("point %d appeared %d times", idx, n)
		}
	}
}

func TestIndexShellSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	pts := make([]geom.Vec3, 500)
	for i := range pts {
		pts[i] = geom.V(rng.Float64(), rng.Float64(), rng.Float64())
	}
	ix := NewIndex(pts, seqIDs(len(pts)), 0)
	q := geom.V(0.5, 0.5, 0.5)
	for s := 0; s <= ix.MaxShell(q); s++ {
		shell := ix.Shell(q, s)
		for i := 1; i < len(shell); i++ {
			if shell[i].Dist < shell[i-1].Dist {
				t.Fatalf("shell %d not sorted", s)
			}
		}
	}
}

func TestIndexShellGuarantee(t *testing.T) {
	// Every point within s*MinCellSize of q must appear in shells 0..s.
	rng := rand.New(rand.NewSource(49))
	pts := make([]geom.Vec3, 400)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*7, rng.Float64()*7, rng.Float64()*7)
	}
	ix := NewIndex(pts, seqIDs(len(pts)), 0)
	h := ix.MinCellSize()
	q := pts[7]
	for s := 0; s <= ix.MaxShell(q); s++ {
		inShells := map[int]bool{}
		for ss := 0; ss <= s; ss++ {
			for _, sp := range ix.Shell(q, ss) {
				inShells[sp.Idx] = true
			}
		}
		r := float64(s) * h
		for i, p := range pts {
			if p.Dist(q) <= r && !inShells[i] {
				t.Fatalf("point %d at distance %v missing from shells 0..%d (guarantee %v)",
					i, p.Dist(q), s, r)
			}
		}
	}
}

func TestIndexEmpty(t *testing.T) {
	ix := NewIndex(nil, nil, 0)
	if len(ix.pts) != 0 {
		t.Error("empty index has points")
	}
	if got := ix.Shell(geom.V(0, 0, 0), 0); len(got) != 0 {
		t.Errorf("empty shell = %v", got)
	}
}

func TestComputeCellIsolatedSite(t *testing.T) {
	// A single site's cell is the whole init box, incomplete.
	site := geom.V(1, 1, 1)
	ix := NewIndex([]geom.Vec3{site}, []int64{0}, 0)
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(2, 2, 2))
	c, err := computeCell(ix, site, 0, box, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Volume()-8) > 1e-9 {
		t.Errorf("volume = %v, want 8", c.Volume())
	}
	if c.Complete {
		t.Error("wall-bounded cell marked complete")
	}
}

func TestPeriodicLatticeCellsAreUnitCubes(t *testing.T) {
	const n = 4
	const L = 4.0
	pts := latticePts(n, L)
	cells := periodicCells(t, pts, L)
	for i, c := range cells {
		if math.Abs(c.Volume()-1) > 1e-6 {
			t.Fatalf("cell %d volume = %v, want 1", i, c.Volume())
		}
		if math.Abs(c.Area()-6) > 1e-6 {
			t.Fatalf("cell %d area = %v, want 6", i, c.Area())
		}
		if !c.Complete {
			t.Fatalf("lattice cell %d incomplete", i)
		}
		if len(c.Faces) != 6 {
			t.Fatalf("lattice cell %d has %d faces", i, len(c.Faces))
		}
	}
}

func TestPeriodicPartitionOfUnity(t *testing.T) {
	// Cell volumes of a periodic tessellation sum to the box volume.
	rng := rand.New(rand.NewSource(50))
	const n = 5
	const L = 5.0
	pts := perturbedLattice(rng, n, L, 0.8)
	cells := periodicCells(t, pts, L)
	var vol float64
	for _, c := range cells {
		vol += c.Volume()
		if !c.Complete {
			t.Error("perturbed lattice produced incomplete cell")
		}
	}
	if math.Abs(vol-L*L*L) > 1e-6*L*L*L {
		t.Errorf("total volume = %v, want %v", vol, L*L*L)
	}
}

func TestPeriodicRandomPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const L = 6.0
	pts := make([]geom.Vec3, 150)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L)
	}
	cells := periodicCells(t, pts, L)
	var vol float64
	for _, c := range cells {
		vol += c.Volume()
	}
	if math.Abs(vol-L*L*L) > 1e-5*L*L*L {
		t.Errorf("total volume = %v, want %v", vol, L*L*L)
	}
}

func TestCellContainsOwnSiteOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const L = 5.0
	pts := perturbedLattice(rng, 4, L, 0.9)
	cells := periodicCells(t, pts, L)
	for i, c := range cells {
		if !c.Contains(pts[i]) {
			t.Fatalf("cell %d does not contain its site", i)
		}
		for j, q := range pts {
			if j == i {
				continue
			}
			if c.Contains(q) {
				// Points just on a shared face within tolerance are fine;
				// enforce only for clearly interior points.
				cen := c.Centroid()
				if q.Dist(cen) < 0.5*c.MaxVertexDist() {
					t.Fatalf("cell %d deeply contains foreign site %d", i, j)
				}
			}
		}
	}
}

func TestAdjacencySymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const L = 5.0
	pts := perturbedLattice(rng, 4, L, 0.7)
	cells := periodicCells(t, pts, L)
	adj := make([]map[int64]bool, len(cells))
	for i, c := range cells {
		adj[i] = map[int64]bool{}
		for _, id := range c.NeighborIDs() {
			adj[i][id] = true
		}
	}
	for i, c := range cells {
		for _, j := range c.NeighborIDs() {
			if int(j) == i {
				continue // periodic self-adjacency has no partner entry
			}
			if !adj[j][int64(i)] {
				t.Fatalf("adjacency asymmetric: %d -> %d but not back", i, j)
			}
		}
	}
}

func TestClippedCellMatchesQuickhull(t *testing.T) {
	// Cross-validation between the two geometry engines: the convex hull
	// of a clipped cell's vertices is the cell itself.
	rng := rand.New(rand.NewSource(54))
	const L = 5.0
	pts := perturbedLattice(rng, 4, L, 0.9)
	cells := periodicCells(t, pts, L)
	for i, c := range cells {
		if i%7 != 0 { // sample for speed
			continue
		}
		h, err := qhull.Compute(c.Verts)
		if err != nil {
			t.Fatalf("cell %d: hull error %v", i, err)
		}
		if math.Abs(h.Volume()-c.Volume()) > 1e-6*math.Max(c.Volume(), 1e-12) {
			t.Fatalf("cell %d: hull volume %v != cell volume %v", i, h.Volume(), c.Volume())
		}
		var hullArea float64
		for _, f := range h.Faces {
			hullArea += geom.TriangleArea(h.Points[f.V[0]], h.Points[f.V[1]], h.Points[f.V[2]])
		}
		if math.Abs(hullArea-c.Area()) > 1e-6*math.Max(c.Area(), 1e-12) {
			t.Fatalf("cell %d: hull area %v != cell area %v", i, hullArea, c.Area())
		}
	}
}

func BenchmarkComputeCell(b *testing.B) {
	rng := rand.New(rand.NewSource(56))
	const L = 8.0
	pts := perturbedLattice(rng, 8, L, 0.8)
	ix := NewIndex(pts, seqIDs(len(pts)), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site := pts[i%len(pts)]
		if _, err := computeCell(ix, site, int64(i%len(pts)), geom.Cube(site, L/2), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	cp := cosmo.DefaultClusterParams()
	cp.Seed = 11
	for _, cl := range []streamCloud{
		{name: "uniform", pts: uniformPts(rng, 400, 9)},
		{name: "clustered", pts: cosmo.ClusteredPositions(1200, 9, cp)},
		{name: "lattice", pts: latticePts(5, 9)}, // equidistant points: lowest index wins
	} {
		name, pts := cl.name, cl.pts
		ix := NewIndex(pts, seqIDs(len(pts)), 0)
		for trial := 0; trial < 300; trial++ {
			// Two thirds inside the index bounds, the rest up to a box
			// length outside them.
			q := geom.V(rng.Float64()*9, rng.Float64()*9, rng.Float64()*9)
			if trial%3 == 0 {
				q = geom.V(rng.Float64()*27-9, rng.Float64()*27-9, rng.Float64()*27-9)
			}
			if trial == 0 {
				q = geom.V(4.5, 4.5, 4.5)
			}
			got, ok := ix.Nearest(q)
			if !ok {
				t.Fatalf("%s: Nearest(%v) failed", name, q)
			}
			// Brute-force reference.
			best := 0
			for i := 1; i < len(pts); i++ {
				if pts[i].Dist(q) < pts[best].Dist(q) {
					best = i
				}
			}
			want := ShellPoint{Idx: best, ID: int64(best), Pos: pts[best], Dist: pts[best].Dist(q)}
			if got != want {
				t.Fatalf("%s: Nearest(%v) = %+v, brute force %+v", name, q, got, want)
			}
		}
		q := geom.V(20, -3, 4)
		if n := testing.AllocsPerRun(10, func() { ix.Nearest(q) }); n != 0 {
			t.Errorf("%s: Nearest allocates %v times per call", name, n)
		}
	}
	if _, ok := NewIndex(nil, nil, 0).Nearest(geom.V(0, 0, 0)); ok {
		t.Error("empty index returned a nearest point")
	}
}
