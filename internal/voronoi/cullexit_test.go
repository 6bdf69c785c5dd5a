package voronoi

import (
	"reflect"
	"testing"

	"repro/internal/geom"
)

// ComputeCellReused stops at a cull only on a cell it has proved final: a
// cell whose full sweep is Complete and small stops, and a small cell that
// keeps a wall, or whose security radius cannot close inside the index,
// sweeps to the end exactly as with no cull at all. Each case runs at three
// culls: one far above the ball around the site, which decides without a
// volume; one between the cell's volume and the ball's, which only the
// volume of the cell as it stands decides; and one below the cell's
// volume, which is evaluated and stops nothing. So only the wall and shell
// conditions stand between the two small culls and an exit.
func TestCullExitOnlyOnProvenCells(t *testing.T) {
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
		final   bool
	}{
		// Deep in a lattice, cut on every side: the unit cube, of ball
		// volume 2.72, is final.
		{"interior", lattice, geom.Cube(center, 2), true},
		// A box thinner in x than the cell: the y and z planes cut it, the
		// x walls stay (volume 0.8, ball 2.25).
		{"wall", lattice, geom.NewBox(geom.V(2.1, 0, 0), geom.V(2.9, 5, 5)), false},
		// Six neighbours close the unit cube around the site, but the index
		// ends before twice its corner distance.
		{"shell", octahedron, geom.Cube(center, 10), false},
	} {
		ix := NewIndex(tc.pts, seqIDs(len(tc.pts)), 0)
		full, err := computeCell(ix, center, 99, tc.initBox, nil)
		if err != nil {
			t.Fatal(err)
		}
		if full.Complete != tc.final {
			t.Fatalf("%s: the full sweep's cell is complete %v, the case needs %v", tc.name, full.Complete, tc.final)
		}
		for _, cull := range []struct {
			name      string
			minVolume float64
			below     bool // the cell is below the cull
			volume    bool // a final cell's volume is evaluated
		}{
			{"ball", 1e6, true, false},
			{"volume", 2, true, true},
			{"above", 0.5, false, true},
		} {
			s := NewScratch()
			got, err := ComputeCellReused(ix, center, 99, tc.initBox, cull.minVolume, s)
			if err != nil {
				t.Fatal(err)
			}
			k := s.TakeCounts()
			stops := tc.final && cull.below
			if (got == nil) != stops || (k.Culled == 1) != stops {
				t.Errorf("%s, %s cull: stopped %v (%d counted), want %v", tc.name, cull.name, got == nil, k.Culled, stops)
			}
			if evaluated := k.VolumeChecks > 0; evaluated != (tc.final && cull.volume) {
				t.Errorf("%s, %s cull: %d volumes evaluated", tc.name, cull.name, k.VolumeChecks)
			}
			if got != nil && !reflect.DeepEqual(got, full) {
				t.Errorf("%s, %s cull: the cell differs from the full sweep's", tc.name, cull.name)
			}
		}
	}
}
