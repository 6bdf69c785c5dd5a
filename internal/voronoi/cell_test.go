package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// handCell is a cell cut by hand, one plane at a time, through the calls
// ComputeCellPooled makes: begin, clip, finish. The sweep is retained
// across cuts and the cell re-finished after each, so the tests below see
// the finished geometry after every plane.
type handCell struct {
	*Cell
	w sweep
}

func newHandCell(site geom.Vec3, id int64, box geom.Box) (*handCell, error) {
	h := &handCell{Cell: new(Cell)}
	if err := h.w.begin(h.Cell, site, id, box); err != nil {
		return nil, err
	}
	h.w.finish(h.Cell, nil, nil, nil)
	return h, nil
}

// clip cuts away the positive half-space of pl and reports whether the
// plane changed the cell.
func (h *handCell) clip(pl geom.Plane, neighborID int64) bool {
	if !h.w.clip(pl, neighborID) {
		return false
	}
	h.w.finish(h.Cell, nil, nil, nil)
	return true
}

// planeThrough is the plane through p with unit normal along n.
func planeThrough(n, p geom.Vec3) geom.Plane {
	u := n.Normalize()
	return geom.Plane{N: u, D: -u.Dot(p)}
}

// MaxVertexDist returns the distance from the site to the farthest cell
// vertex (0 for an empty cell).
func (c *Cell) MaxVertexDist() float64 {
	var m float64
	for _, v := range c.Verts {
		m = math.Max(m, v.Dist2(c.Site))
	}
	return math.Sqrt(m)
}

// Centroid returns the volumetric centroid of the cell.
func (c *Cell) Centroid() geom.Vec3 {
	var num geom.Vec3
	var den float64
	for _, f := range c.Faces {
		for i := 1; i+1 < len(f.Loop); i++ {
			a := c.Verts[f.Loop[0]]
			b := c.Verts[f.Loop[i]]
			d := c.Verts[f.Loop[i+1]]
			v := math.Abs(geom.Orient3DVal(c.Site, a, b, d)) / 6
			tc := geom.Centroid([]geom.Vec3{c.Site, a, b, d})
			num = num.Add(tc.Scale(v))
			den += v
		}
	}
	if den == 0 {
		return c.Site
	}
	return num.Scale(1 / den)
}

// NeighborIDs returns the IDs of all non-wall face neighbors.
func (c *Cell) NeighborIDs() []int64 {
	var out []int64
	for _, f := range c.Faces {
		if f.Neighbor >= 0 {
			out = append(out, f.Neighbor)
		}
	}
	return out
}

// Contains reports whether p lies inside the cell (within tolerance),
// testing p against every face plane implied by the loops.
func (c *Cell) Contains(p geom.Vec3) bool {
	for _, f := range c.Faces {
		if len(f.Loop) < 3 {
			continue
		}
		pl := geom.PlaneFromPoints(c.Verts[f.Loop[0]], c.Verts[f.Loop[1]], c.Verts[f.Loop[2]])
		if pl.Degenerate() {
			continue
		}
		// Orient outward: the site is inside.
		if pl.Eval(c.Site) > 0 {
			pl = pl.Flip()
		}
		if pl.Eval(p) > 1e3*c.eps {
			return false
		}
	}
	return true
}

func TestNewCellBox(t *testing.T) {
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(2, 2, 2))
	c, err := newHandCell(geom.V(1, 1, 1), 7, box)
	if err != nil {
		t.Fatal(err)
	}
	if c.SiteID != 7 {
		t.Errorf("SiteID = %d", c.SiteID)
	}
	if len(c.Verts) != 8 || len(c.Faces) != 6 {
		t.Fatalf("box cell: %d verts, %d faces", len(c.Verts), len(c.Faces))
	}
	if got := c.Volume(); math.Abs(got-8) > 1e-12 {
		t.Errorf("box volume = %v, want 8", got)
	}
	if got := c.Area(); math.Abs(got-24) > 1e-12 {
		t.Errorf("box area = %v, want 24", got)
	}
	if !c.w.hasWall() {
		t.Error("fresh box cell should have walls")
	}
	if c.w.empty() {
		t.Error("fresh cell empty")
	}
	// Site outside box is rejected.
	if _, err := newHandCell(geom.V(5, 1, 1), 0, box); err == nil {
		t.Error("site outside box accepted")
	}
	if _, err := newHandCell(geom.V(0, 1, 1), 0, box); err == nil {
		t.Error("site on boundary accepted")
	}
}

func TestBoxFacesOutward(t *testing.T) {
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
	c, err := newHandCell(geom.V(0.5, 0.5, 0.5), 0, box)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range c.Faces {
		loop := make([]geom.Vec3, len(f.Loop))
		for i, vi := range f.Loop {
			loop[i] = c.Verts[vi]
		}
		n := geom.PolygonNormal(loop).Normalize()
		fc := geom.Centroid(loop)
		if n.Dot(fc.Sub(c.Site)) <= 0 {
			t.Errorf("face %d (wall %d) not outward: n=%v", f.Neighbor, f.Neighbor, n)
		}
	}
}

func TestClipHalvesCube(t *testing.T) {
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(2, 2, 2))
	c, _ := newHandCell(geom.V(0.5, 1, 1), 1, box)
	// Bisector between site (0.5,1,1) and neighbor (3.5,1,1) is x = 2 (no
	// cut); neighbor at (1.5,1,1) bisects at x = 1.
	if c.clip(geom.Bisector(c.Site, geom.V(3.5, 1, 1)), 2) {
		t.Error("plane outside box reported a cut")
	}
	if !c.clip(geom.Bisector(c.Site, geom.V(1.5, 1, 1)), 2) {
		t.Error("bisector at x=1 did not cut")
	}
	if got := c.Volume(); math.Abs(got-4) > 1e-9 {
		t.Errorf("half-cube volume = %v, want 4", got)
	}
	if len(c.Faces) != 6 {
		t.Errorf("half-cube faces = %d, want 6", len(c.Faces))
	}
	// One face carries the neighbor ID.
	found := false
	for _, f := range c.Faces {
		if f.Neighbor == 2 {
			found = true
			if len(f.Loop) != 4 {
				t.Errorf("cut face has %d vertices, want 4", len(f.Loop))
			}
		}
	}
	if !found {
		t.Error("no face with neighbor ID 2")
	}
	if ids := c.NeighborIDs(); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("NeighborIDs = %v", ids)
	}
}

func TestClipCorner(t *testing.T) {
	// Slice off one corner of the unit cube: volume of removed tetrahedron
	// with legs 0.5 is 0.5^3/6.
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
	c, _ := newHandCell(geom.V(0.25, 0.25, 0.25), 0, box)
	pl := planeThrough(geom.V(1, 1, 1), geom.V(1, 1, 0.5)) // x+y+z = 2.5
	if !c.clip(pl, 9) {
		t.Fatal("corner plane did not cut")
	}
	want := 1 - (0.5*0.5*0.5)/6
	if got := c.Volume(); math.Abs(got-want) > 1e-9 {
		t.Errorf("volume = %v, want %v", got, want)
	}
	// The new face is a triangle.
	for _, f := range c.Faces {
		if f.Neighbor == 9 && len(f.Loop) != 3 {
			t.Errorf("corner cut face has %d vertices", len(f.Loop))
		}
	}
	if len(c.Faces) != 7 {
		t.Errorf("faces = %d, want 7", len(c.Faces))
	}
}

func TestClipThroughVertexExactly(t *testing.T) {
	// Plane passing exactly through cube vertices: x + y = 1 passes through
	// the edge (1,0,z)-(0,1,z) vertices of the unit cube.
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
	c, _ := newHandCell(geom.V(0.25, 0.25, 0.5), 0, box)
	pl := planeThrough(geom.V(1, 1, 0), geom.V(0.5, 0.5, 0))
	if !c.clip(pl, 3) {
		t.Fatal("diagonal plane did not cut")
	}
	if got := c.Volume(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("volume = %v, want 0.5", got)
	}
	for _, p := range c.Verts {
		if p.X+p.Y > 1+1e-9 {
			t.Errorf("vertex %v survived on wrong side", p)
		}
	}
}

func TestClipEmptiesCell(t *testing.T) {
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
	c, _ := newHandCell(geom.V(0.5, 0.5, 0.5), 0, box)
	pl := planeThrough(geom.V(0, 0, 1), geom.V(0, 0, -5)) // keep z <= -5
	if !c.clip(pl, 1) {
		t.Error("emptying clip reported no change")
	}
	if !c.w.empty() || len(c.Verts) != 0 {
		t.Error("cell should be empty")
	}
	if c.Volume() != 0 {
		t.Errorf("empty volume = %v", c.Volume())
	}
	// Further clips are no-ops.
	if c.clip(pl, 2) {
		t.Error("clip on empty cell reported a cut")
	}
}

func TestSequentialClipsProduceConsistentGeometry(t *testing.T) {
	// Clip a cell by many random bisectors; after each cut the polyhedron
	// must stay convex-consistent: volume decreases monotonically, area
	// stays positive, all vertices stay inside every face plane, Euler
	// formula V - E + F = 2 holds.
	rng := rand.New(rand.NewSource(44))
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4))
	site := geom.V(2, 2, 2)
	c, _ := newHandCell(site, 0, box)
	prevVol := c.Volume()
	for i := 0; i < 60; i++ {
		q := geom.V(rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
		if q.Dist(site) < 0.2 {
			continue
		}
		c.clip(geom.Bisector(site, q), int64(i+1))
		if c.w.empty() {
			t.Fatal("cell emptied by bisectors of a box point set")
		}
		vol := c.Volume()
		if vol > prevVol+1e-9 {
			t.Fatalf("clip %d increased volume: %v -> %v", i, prevVol, vol)
		}
		prevVol = vol
		if !c.Contains(site) {
			t.Fatalf("site left cell after clip %d", i)
		}
		checkEuler(t, c.Cell)
	}
	if prevVol <= 0 {
		t.Error("final volume nonpositive")
	}
}

func checkEuler(t *testing.T, c *Cell) {
	t.Helper()
	v := len(c.Verts)
	f := len(c.Faces)
	edges := map[[2]int]bool{}
	for _, face := range c.Faces {
		n := len(face.Loop)
		for i := 0; i < n; i++ {
			a, b := face.Loop[i], face.Loop[(i+1)%n]
			if a > b {
				a, b = b, a
			}
			edges[[2]int{a, b}] = true
		}
	}
	e := len(edges)
	if v-e+f != 2 {
		t.Fatalf("Euler violated: V=%d E=%d F=%d", v, e, f)
	}
}

func TestCentroidInsideCell(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(2, 2, 2))
	site := geom.V(1, 1, 1)
	c, _ := newHandCell(site, 0, box)
	for i := 0; i < 20; i++ {
		q := geom.V(rng.Float64()*2, rng.Float64()*2, rng.Float64()*2)
		if q.Dist(site) < 0.3 {
			continue
		}
		c.clip(geom.Bisector(site, q), int64(i+1))
	}
	cen := c.Centroid()
	if !c.Contains(cen) {
		t.Errorf("centroid %v outside cell", cen)
	}
	if cen == site {
		t.Log("centroid coincides with site (unlikely but not wrong)")
	}
}

func TestMaxVertexDist(t *testing.T) {
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(2, 2, 2))
	c, _ := newHandCell(geom.V(1, 1, 1), 0, box)
	want := math.Sqrt(3)
	if got := c.MaxVertexDist(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxVertexDist = %v, want %v", got, want)
	}
}

func TestFaceAreasSumToArea(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3))
	site := geom.V(1.5, 1.5, 1.5)
	c, _ := newHandCell(site, 0, box)
	for i := 0; i < 15; i++ {
		q := geom.V(rng.Float64()*3, rng.Float64()*3, rng.Float64()*3)
		if q.Dist(site) < 0.3 {
			continue
		}
		c.clip(geom.Bisector(site, q), int64(i+1))
	}
	var sum float64
	for _, f := range c.Faces {
		loop := make([]geom.Vec3, len(f.Loop))
		for i, vi := range f.Loop {
			loop[i] = c.Verts[vi]
		}
		a := geom.PolygonArea(loop)
		if a <= 0 {
			t.Error("nonpositive face area")
		}
		sum += a
	}
	if math.Abs(sum-c.Area()) > 1e-9*c.Area() {
		t.Errorf("face areas sum %v != total area %v", sum, c.Area())
	}
}
