// Package voronoi computes 3D Voronoi cells by iterative half-space
// clipping: each cell starts as a bounding box around its site and is cut by
// the perpendicular bisector plane of every nearby site, visited in
// increasing distance order until the security-radius criterion proves the
// cell final (the construction used by Voro++, which the paper cites as the
// shared-memory state of the art). The per-cell independence of this
// construction is what makes the paper's "local computation + ghost
// exchange" parallelization exact.
package voronoi

import (
	"math"

	"repro/internal/geom"
)

// Wall face IDs: negative values distinguish faces contributed by the
// initial bounding box from faces generated by neighbor bisectors (which
// carry the neighbor's nonnegative particle ID).
const (
	WallXMin int64 = -1
	WallXMax int64 = -2
	WallYMin int64 = -3
	WallYMax int64 = -4
	WallZMin int64 = -5
	WallZMax int64 = -6
)

// Face is one polygonal facet of a Voronoi cell.
type Face struct {
	// Neighbor is the ID of the site across this face, or a negative Wall*
	// constant when the face lies on the initial clipping box.
	Neighbor int64
	// Loop is the ordered list of vertex indices (into Cell.Verts), oriented
	// counterclockwise viewed from outside the cell.
	Loop []int
}

// Cell is a convex Voronoi cell represented as vertices plus oriented
// polygonal face loops. A cell never aliases the sweep it was built
// through: the sweep writes the finished cell into storage of its own, of
// a CellPool, or of the Scratch's single-cell storage (ComputeCellReused).
type Cell struct {
	Site   geom.Vec3
	SiteID int64
	Verts  []geom.Vec3
	Faces  []Face
	// Complete reports whether the cell was proven final by the security
	// radius criterion and touches no wall of the initial clipping box.
	// Incomplete cells are exactly the ones the paper deletes in step 3(b).
	Complete bool

	eps float64
}

// Volume returns the cell volume via fans from the site (which lies inside
// the convex cell).
func (c *Cell) Volume() float64 {
	var vol float64
	for _, f := range c.Faces {
		vol = addFan(vol, c.Site, c.Verts, f.Loop)
	}
	return math.Abs(vol) / 6
}

// addFan adds to vol six times the signed volume of the fan from site over
// loop: Volume and the sweep's volume share it, so they agree to the bit.
func addFan(vol float64, site geom.Vec3, verts []geom.Vec3, loop []int) float64 {
	for i := 1; i+1 < len(loop); i++ {
		vol += geom.Orient3DVal(site, verts[loop[0]], verts[loop[i]], verts[loop[i+1]])
	}
	return vol
}

// Area returns the total surface area of the cell. The triangle fan per
// face is the same arithmetic as geom.PolygonArea, evaluated through the
// loop indices directly so the per-face vertex slice (and its allocation)
// disappears from the mesh-build hot path.
func (c *Cell) Area() float64 {
	var area float64
	for _, f := range c.Faces {
		if len(f.Loop) < 3 {
			continue
		}
		var faceArea float64
		for i := 1; i+1 < len(f.Loop); i++ {
			faceArea += geom.TriangleArea(c.Verts[f.Loop[0]], c.Verts[f.Loop[i]], c.Verts[f.Loop[i+1]])
		}
		area += faceArea
	}
	return area
}
