package voronoi

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// sweepChecked is clipCellShells with no cull, written out so that every
// plane the box rejects is held to the evaluation it skipped: no live
// vertex may lie above eps on it. It returns the finished cell, the number
// of planes the box rejected and the emptied-cell error, if any.
func sweepChecked(t *testing.T, ix *Index, site geom.Vec3, id int64, initBox geom.Box, s *Scratch) (*Cell, int64, error) {
	t.Helper()
	w := &s.sw
	cell := new(Cell)
	if err := w.begin(cell, site, id, initBox); err != nil {
		t.Fatal(err)
	}
	h := ix.MinCellSize()
	siteEps := 1e-12 * initBox.Size().MaxAbs()
	maxR, reach := w.maxR(), -1.0
	var boxed int64
	var err error
shells:
	for sh := 0; sh <= ix.MaxShell(site); sh++ {
		s.cands, _ = ix.appendShell(site, sh, 2*maxR*(1+pruneSlack), s.cands[:0])
		s.q.load(s.cands)
		for cd, ok := s.q.next(); ok; cd, ok = s.q.next() {
			if cd.dist <= siteEps {
				continue
			}
			if cd.dist >= 2*maxR {
				break
			}
			pl := geom.Bisector(site, ix.pts[cd.idx])
			if w.hasBox && w.boxMiss(pl) {
				boxed++
				for _, vi := range w.live {
					if d := pl.Eval(w.verts[vi]); d > w.eps {
						t.Fatalf("site %v: the box rejected a plane on which vertex %v is %g above it (eps %g)",
							site, w.verts[vi], d, w.eps)
					}
				}
			}
			if w.clip(pl, ix.ids[cd.idx]) {
				if w.empty() {
					err = fmt.Errorf("emptied")
					break shells
				}
				maxR = w.maxR()
			}
		}
		reach = float64(sh) * h
		if w.closed(reach, 0) {
			break
		}
	}
	if err == nil {
		cell.Complete = w.complete(reach, 0)
	}
	vol := w.volume()
	w.finishOwned(cell)
	if got := cell.Volume(); got != vol {
		t.Fatalf("site %v: the sweep's volume %v, the finished cell's %v", site, vol, got)
	}
	return cell, boxed, err
}

// Every plane the box of the live vertices rejects misses the cell: on
// every golden cloud and both BenchmarkKernelStream inputs, each rejected
// plane evaluates to at most eps on every live vertex. The written-out
// sweep builds the same cells and rejects the same planes as
// ComputeCellScratch, and the finished cell's Volume is the sweep's own
// volume to the bit. Under the race detector every eighth site runs.
func TestBoxRejectsOnlyMisses(t *testing.T) {
	type input struct {
		name    string
		ix      *Index
		sites   int
		initBox geom.Box
	}
	var inputs []input
	for _, cl := range goldenClouds(t) {
		inputs = append(inputs, input{cl.name, NewIndex(cl.pts, seqIDs(len(cl.pts)), 0), len(cl.pts),
			geom.BoundingBox(cl.pts).Expand(1)})
	}
	halo, nb := kernelClouds()
	for _, in := range []kernelInput{
		periodicBlock("halo-mock", halo, 24, 0, 24, 4),
		periodicBlock("nbody-32", nb, 32, 0, 32, 4),
	} {
		inputs = append(inputs, input{in.name, in.ix, in.sites, in.initBox})
	}
	step := 1
	if raceEnabled {
		step = 8
	}
	for _, in := range inputs {
		checked, prod := NewScratch(), NewScratch()
		var boxed int64
		for i := 0; i < in.sites; i += step {
			site, id := in.ix.pts[i], in.ix.ids[i]
			got, n, errGot := sweepChecked(t, in.ix, site, id, in.initBox, checked)
			want, errWant := ComputeCellScratch(in.ix, site, id, in.initBox, prod)
			if (errGot == nil) != (errWant == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s site %d: the written-out sweep's cell differs from ComputeCellScratch's (%v, %v)",
					in.name, i, errGot, errWant)
			}
			boxed += n
		}
		k := prod.TakeCounts()
		if k.Boxed != boxed {
			t.Errorf("%s: ComputeCellScratch boxed %d planes, the written-out sweep %d", in.name, k.Boxed, boxed)
		}
		if boxed == 0 || boxed > k.Tested-k.Cut {
			t.Errorf("%s: %d planes boxed of %d tested that did not cut", in.name, boxed, k.Tested-k.Cut)
		}
		t.Logf("%s: the box rejected %d of %d tested planes (%.1f%%)", in.name, boxed, k.Tested,
			100*float64(boxed)/float64(k.Tested))
	}
}

// The box's margin is what keeps it exact. On a cell that is still its
// initial box, every box corner is a vertex, so a plane whose highest
// vertex lies an ulp or so above eps has a box bound that, without the
// margin, rounds to at most eps now and then. The box must reject none of
// them. The test counts the planes on which the bound without the
// margin would have rejected, and needs some.
func TestBoxRejectMargin(t *testing.T) {
	box := geom.NewBox(geom.V(0.1, 0.2, 0.3), geom.V(1.7, 2.9, 3.1))
	site := geom.V(0.7, 1.3, 2.2)
	far := []geom.Plane{geom.Bisector(site, geom.V(40, 1, 1)), geom.Bisector(site, geom.V(1, -40, 1))}
	rng := rand.New(rand.NewSource(4201))
	var w sweep
	var c Cell
	decided, planes := 0, 0
	for range 2000 {
		n := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
		if err := w.begin(&c, site, 0, box); err != nil {
			t.Fatal(err)
		}
		for _, pl := range far {
			if w.clip(pl, 1) {
				t.Fatal("a far plane cut the box")
			}
		}
		if !w.hasBox {
			t.Fatal("two misses built no box")
		}
		top := math.Inf(-1)
		for _, v := range w.verts {
			top = max(top, n.Dot(v))
		}
		// Step D through the ulps around the value that puts the highest
		// vertex at eps.
		d := w.eps - top
		for range 6 {
			d = math.Nextafter(d, math.Inf(-1))
		}
		for range 13 {
			d = math.Nextafter(d, math.Inf(1))
			pl := geom.Plane{N: n, D: d}
			out := false
			for _, vi := range w.live {
				out = out || pl.Eval(w.verts[vi]) > w.eps
			}
			if !out {
				continue
			}
			planes++
			bc, bh := w.bc, w.bh
			if n.Dot(bc)+d+math.Abs(n.X)*bh.X+math.Abs(n.Y)*bh.Y+math.Abs(n.Z)*bh.Z <= w.eps {
				decided++
			}
			if w.boxMiss(pl) {
				t.Fatalf("the box rejected %+v, on which a vertex is above eps", pl)
			}
		}
	}
	if decided == 0 {
		t.Fatalf("none of %d planes just above eps needed the margin: the test lost its power", planes)
	}
	t.Logf("%d of %d planes just above eps needed the margin", decided, planes)
}
