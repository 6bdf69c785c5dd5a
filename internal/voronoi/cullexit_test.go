package voronoi

import (
	"reflect"
	"testing"

	"repro/internal/geom"
)

// ComputeCellReused stops at a cull only on a cell it has proved final: a
// cell whose full sweep is Complete and small stops, and a small cell that
// keeps a wall, or whose security radius cannot close inside the index,
// sweeps to the end exactly as with no cull at all. Each case holds with a
// cull diameter far above the cell's, so only the wall and shell
// conditions stand between it and an exit.
func TestCullExitOnlyOnProvenCells(t *testing.T) {
	const huge = 1e6 // a squared cull diameter no test cell reaches
	lattice := latticePts(5, 5)
	center := geom.V(2.5, 2.5, 2.5)
	octahedron := []geom.Vec3{center}
	for _, d := range []geom.Vec3{geom.V(1, 0, 0), geom.V(-1, 0, 0), geom.V(0, 1, 0), geom.V(0, -1, 0), geom.V(0, 0, 1), geom.V(0, 0, -1)} {
		octahedron = append(octahedron, center.Add(d))
	}
	for _, tc := range []struct {
		name    string
		pts     []geom.Vec3
		initBox geom.Box
		stops   bool
	}{
		// Deep in a lattice, cut on every side: the exit fires.
		{"interior", lattice, geom.Cube(center, 2), true},
		// A box thinner in x than the cell: the y and z planes cut it, the
		// x walls stay.
		{"wall", lattice, geom.NewBox(geom.V(2.1, 0, 0), geom.V(2.9, 5, 5)), false},
		// Six neighbours close the cube around the site, but the index
		// ends before twice its corner distance.
		{"shell", octahedron, geom.Cube(center, 10), false},
	} {
		ix := NewIndex(tc.pts, seqIDs(len(tc.pts)), 0)
		full, err := ComputeCellScratch(ix, center, 99, tc.initBox, nil)
		if err != nil {
			t.Fatal(err)
		}
		if full.Complete != tc.stops {
			t.Fatalf("%s: the full sweep's cell is complete %v, the case needs %v", tc.name, full.Complete, tc.stops)
		}
		s := NewScratch()
		got, err := ComputeCellReused(ix, center, 99, tc.initBox, huge, s)
		if err != nil {
			t.Fatal(err)
		}
		if culled := s.TakeCounts().Culled; (got == nil) != tc.stops || (culled == 1) != tc.stops {
			t.Errorf("%s: stopped %v (%d counted), want %v", tc.name, got == nil, culled, tc.stops)
		}
		if got != nil && !reflect.DeepEqual(got, full) {
			t.Errorf("%s: the cell differs from the full sweep's", tc.name)
		}
	}
}
