package delaunay

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/voronoi"
)

// Circumcenters returns the circumcenter of every tetrahedron — the dual
// Voronoi vertices.
func (tr *Triangulation) Circumcenters() []geom.Vec3 {
	out := make([]geom.Vec3, len(tr.Tets))
	for i, t := range tr.Tets {
		cc, _ := geom.Circumcenter(tr.Points[t.V[0]], tr.Points[t.V[1]], tr.Points[t.V[2]], tr.Points[t.V[3]])
		out[i] = cc
	}
	return out
}

// Edges returns the unique vertex-index edges of the triangulation — the
// dual of the Voronoi face-adjacency graph.
func (tr *Triangulation) Edges() [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, t := range tr.Tets {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				a, b := t.V[i], t.V[j]
				if a > b {
					a, b = b, a
				}
				k := [2]int{a, b}
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
	}
	return out
}

// TestVoronoiDuality verifies the relationship the paper states in
// Sec. II-B — "the Delaunay is simply its dual" — by checking that, for
// interior sites, the Delaunay edge set equals the Voronoi face-adjacency
// graph produced by the independent cell-clipping engine.
func TestVoronoiDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	const L = 10.0
	var pts []geom.Vec3
	for i := 0; i < 300; i++ {
		pts = append(pts, geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L))
	}
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}

	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	delEdges := map[[2]int]bool{}
	for _, e := range tr.Edges() {
		delEdges[e] = true
	}

	// Non-periodic Voronoi over the same points: cells bounded by the
	// domain box; only cells proven complete (interior, fully shaped by
	// neighbors) are compared.
	ix := voronoi.NewIndex(pts, ids, 0)
	interior := 0
	for i, site := range pts {
		cell, err := voronoi.ComputeCellScratch(ix, site, ids[i], geom.Cube(site, L), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !cell.Complete {
			continue
		}
		interior++
		// Every Voronoi face neighbor must be a Delaunay edge.
		vorNb := map[int]bool{}
		for _, f := range cell.Faces {
			if f.Neighbor < 0 {
				continue // a wall of the initial box
			}
			vorNb[int(f.Neighbor)] = true
			a, b := i, int(f.Neighbor)
			if a > b {
				a, b = b, a
			}
			if !delEdges[[2]int{a, b}] {
				t.Fatalf("Voronoi adjacency (%d, %d) is not a Delaunay edge", a, b)
			}
		}
		// And every Delaunay edge from an interior site must be a Voronoi
		// face neighbor (generic position: no degenerate cospherical sets
		// with random float64 coordinates).
		for e := range delEdges {
			var other int
			switch {
			case e[0] == i:
				other = e[1]
			case e[1] == i:
				other = e[0]
			default:
				continue
			}
			if !vorNb[other] {
				t.Fatalf("Delaunay edge (%d, %d) missing from Voronoi adjacency of interior site %d",
					e[0], e[1], i)
			}
		}
	}
	if interior < 50 {
		t.Fatalf("only %d interior cells; duality check underpowered", interior)
	}
}

// TestCircumcentersAreVoronoiVertices checks the dual vertex relationship:
// each tetrahedron's circumcenter is a vertex of the Voronoi cells of its
// four sites (for interior, complete cells).
func TestCircumcentersAreVoronoiVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	const L = 8.0
	var pts []geom.Vec3
	for i := 0; i < 150; i++ {
		pts = append(pts, geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L))
	}
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	ccs := tr.Circumcenters()
	ix := voronoi.NewIndex(pts, ids, 0)

	cells := map[int]*voronoi.Cell{}
	cellOf := func(i int) *voronoi.Cell {
		if c, ok := cells[i]; ok {
			return c
		}
		c, err := voronoi.ComputeCellScratch(ix, pts[i], ids[i], geom.Cube(pts[i], L), nil)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = c
		return c
	}

	checked := 0
	for ti, tet := range tr.Tets {
		cc := ccs[ti]
		// Only circumcenters well inside the domain are vertices of
		// complete cells.
		if cc.X < 1 || cc.X > L-1 || cc.Y < 1 || cc.Y > L-1 || cc.Z < 1 || cc.Z > L-1 {
			continue
		}
		ok := true
		for _, vi := range tet.V {
			c := cellOf(vi)
			if !c.Complete {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, vi := range tet.V {
			c := cellOf(vi)
			found := false
			for _, v := range c.Verts {
				if v.Dist(cc) < 1e-6 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("circumcenter of tet %d (%v) is not a vertex of site %d's cell",
					ti, cc, vi)
			}
		}
		checked++
		if checked > 200 {
			break
		}
	}
	if checked < 30 {
		t.Fatalf("only %d circumcenters checked", checked)
	}
}
