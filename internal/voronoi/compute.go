package voronoi

import (
	"fmt"

	"repro/internal/geom"
)

// ComputeCellScratch builds the Voronoi cell of site among the points of
// ix, clipping in nearest-first order and stopping once the security-radius
// criterion proves the cell final: when every unprocessed point is farther
// than twice the distance to the farthest remaining cell vertex, no
// bisector can cut the cell any more.
//
// initBox is the initial clipping volume (it must strictly contain the
// site); walls of this box that survive clipping mark the cell incomplete,
// as does exhausting the index before the security radius is reached. The
// site itself (any indexed point within ~0 distance of it) is skipped.
//
// Every vertex, face, and loop buffer of the clipping kernel is reused from
// s, so computing many cells through one Scratch allocates almost nothing
// per cell; a nil s uses fresh storage. The returned cell owns its memory
// (it never aliases s) and is bit-identical whichever Scratch built it.
func ComputeCellScratch(ix *Index, site geom.Vec3, id int64, initBox geom.Box, s *Scratch) (*Cell, error) {
	if s == nil {
		s = NewScratch()
	}
	cell := new(Cell)
	if err := s.sw.begin(cell, site, id, initBox); err != nil {
		return nil, err
	}
	_, err := clipCellShells(cell, ix, initBox, 0, s)
	s.sw.finishOwned(cell)
	return cell, err
}

// ComputeCellPooled is ComputeCellScratch with the finished cell written
// into pool instead of fresh heap slices: with a retained pool (reset once
// per batch) the steady-state construction of a cell allocates nothing at
// all. The returned cell is bit-identical to the ComputeCellScratch result
// for the same inputs and stays valid until pool.Reset; a nil pool falls
// back to ComputeCellScratch. It serves the bench's layer replay and the
// tests, which keep a block's cells alive together; the session consumes
// each cell as it is finished, through ComputeCellReused.
func ComputeCellPooled(ix *Index, site geom.Vec3, id int64, initBox geom.Box, s *Scratch, pool *CellPool) (*Cell, error) {
	if pool == nil {
		return ComputeCellScratch(ix, site, id, initBox, s)
	}
	if s == nil {
		s = NewScratch()
	}
	cell := pool.nextCell()
	if err := s.sw.begin(cell, site, id, initBox); err != nil {
		return nil, err
	}
	_, err := clipCellShells(cell, ix, initBox, 0, s)
	pool.finish(&s.sw, cell)
	return cell, err
}

// ComputeCellReused is ComputeCellScratch with the finished cell written
// into s's own single-cell storage (the multithreaded Voro++ design: one
// reusable cell per thread, consumed as soon as it is finished). The cell
// is bit-identical to the ComputeCellScratch result for the same inputs
// and valid only until the next cell computed through s; a warm s builds
// it with no allocation at all. s must not be nil.
//
// A positive diamCut2 is the caller's early cull (the paper's step 3(c)):
// the squared diameter below which it deletes a complete cell. The sweep
// then stops right after a cut that proves the cell will end Complete with
// every vertex within sqrt(diamCut2)/2 of the site, and returns a nil cell
// and a nil error without finishing it; the full sweep's cell would have
// been culled by that bound. Zero sweeps to the end, as ComputeCellScratch
// does.
func ComputeCellReused(ix *Index, site geom.Vec3, id int64, initBox geom.Box, diamCut2 float64, s *Scratch) (*Cell, error) {
	cell := &s.cell
	if err := s.sw.begin(cell, site, id, initBox); err != nil {
		return nil, err
	}
	culled, err := clipCellShells(cell, ix, initBox, diamCut2, s)
	if culled {
		return nil, nil
	}
	s.verts, s.faces, s.loops = s.sw.finish(cell, s.verts[:0], s.faces[:0], s.loops[:0])
	return cell, err
}

// pruneSlack widens the cutting range handed to the index at shell entry.
// In exact arithmetic a clip only adds vertices on edges of the old convex
// cell, so maxR never grows and 2*maxR at shell entry bounds every
// candidate the sweep can still test; in floating point an interpolated
// vertex can land an ulp or so outside its edge (TestClipNeverGrowsMaxR
// pins how little), and the slack covers that many times over. The exact
// test against the current 2*maxR stays in the sweep, so the slack costs a
// stray candidate in the stream at most and never changes which planes
// are clipped.
const pruneSlack = 1e-9

// clipCellShells is the shared clipping sweep of the ComputeCell variants:
// expanding grid shells in nearest-first order until the security radius
// proves the cell final. Each shell arrives as a cutoff-bounded candidate
// stream: the index drops every point at or beyond the cell's cutting
// range before anything is ordered, and the survivors are read off a heap
// only as far as the first one out of range. The cell's geometry stays in
// s.sw; the caller finishes it into owned or pool storage, also when the
// emptied-cell error is returned (callers get both the cell and the error).
//
// With a positive diamCut2 the sweep may instead stop at a proven cull and
// report culled; see ComputeCellReused. After a cut, three things make the
// rest of the sweep moot: 2·maxR, with slack, is below the cull diameter;
// the last shell reaches past 2·maxR, with slack, so the security radius is
// sure to close inside the index; and no face is a wall. Walls never come
// back, and a clip grows maxR by an ulp at most (TestClipNeverGrowsMaxR),
// which pruneSlack covers many times over, so the full sweep would end
// Complete and below diameterBelow's first bound in package core.
func clipCellShells(cell *Cell, ix *Index, initBox geom.Box, diamCut2 float64, s *Scratch) (culled bool, err error) {
	w := &s.sw
	h := ix.MinCellSize()
	maxShell := ix.MaxShell(cell.Site)
	lastReach := float64(maxShell) * h
	siteEps := 1e-12 * initBox.Size().MaxAbs()
	kc := &s.counts

	maxR := w.maxR()
	reach := -1.0 // distance out to which every indexed point has been offered
	for sh := 0; sh <= maxShell; sh++ {
		var measured int
		s.cands, measured = ix.appendShell(cell.Site, sh, 2*maxR*(1+pruneSlack), s.cands[:0])
		kc.Shells++
		kc.Gathered += int64(measured)
		kc.Sorted += int64(len(s.cands))
		heapifyCandidates(s.cands)
		for rest := s.cands; len(rest) > 0; rest = popCandidate(rest) {
			cd := rest[0]
			if cd.dist <= siteEps {
				continue // the site itself
			}
			// Within a shell, points arrive in order of distance and
			// clipping only shrinks the cell, so once a point is beyond the
			// cutting range the rest of the shell is too.
			if cd.dist >= 2*maxR {
				break
			}
			kc.Tested++
			if w.clip(geom.Bisector(cell.Site, ix.pts[cd.idx]), ix.ids[cd.idx]) {
				kc.Cut++
				if w.empty() {
					return false, fmt.Errorf("voronoi: cell of site %v emptied by %v (duplicate points?)", cell.Site, ix.pts[cd.idx])
				}
				maxR = w.maxR()
				if diamCut2 > 0 && 4*w.maxR2*(1+pruneSlack) < diamCut2 && w.complete(lastReach, pruneSlack) {
					kc.Culled++
					return true, nil
				}
			}
		}
		// All points within s*h are guaranteed processed after shell s.
		reach = float64(sh) * h
		if w.closed(reach, 0) {
			break
		}
	}
	cell.Complete = w.complete(reach, 0)
	return false, nil
}

// ComputePeriodic computes the full periodic Voronoi tessellation of the
// point set in the cubic box [0, L)^3: every point of the box gets a cell,
// and cells near the boundary are shaped by periodic images. This is the
// serial reference implementation that the parallel accuracy study
// (Table I) compares against.
//
// Periodic images are kept within L/2 outside the box, which must exceed
// twice the largest cell radius for full correctness: ample for any point
// set dense enough to be of interest (cells spanning a quarter of the box
// would be required to break it, and such cells are flagged Complete ==
// false rather than silently wrong). workers sets the number of concurrent
// cell builders (0 means GOMAXPROCS); each worker reuses its own Scratch,
// and the result is independent of the worker count.
func ComputePeriodic(pts []geom.Vec3, ids []int64, L float64, workers int) ([]*Cell, error) {
	if len(pts) != len(ids) {
		return nil, fmt.Errorf("voronoi: %d points but %d ids", len(pts), len(ids))
	}
	if L <= 0 {
		return nil, fmt.Errorf("voronoi: non-positive box size %g", L)
	}
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L))
	expanded := domain.Expand(L / 2)

	// Original points first (indices align), then periodic images within
	// the margin.
	allPts := append([]geom.Vec3(nil), pts...)
	allIDs := append([]int64(nil), ids...)
	for i, p := range pts {
		for sx := -1.0; sx <= 1; sx++ {
			for sy := -1.0; sy <= 1; sy++ {
				for sz := -1.0; sz <= 1; sz++ {
					if sx == 0 && sy == 0 && sz == 0 {
						continue
					}
					img := p.Add(geom.V(sx*L, sy*L, sz*L))
					if expanded.Contains(img) {
						allPts = append(allPts, img)
						allIDs = append(allIDs, ids[i])
					}
				}
			}
		}
	}
	ix := NewIndex(allPts, allIDs, 0)

	cells := make([]*Cell, len(pts))
	errs := make([]error, len(pts))
	workers = PoolWorkers(workers, len(pts))
	scratches := make([]*Scratch, workers)
	ParallelFor(len(pts), workers, func(lo, hi, w int) {
		s := scratches[w]
		if s == nil {
			s = NewScratch()
			scratches[w] = s
		}
		for i := lo; i < hi; i++ {
			cells[i], errs[i] = ComputeCellScratch(ix, pts[i], ids[i], geom.Cube(pts[i], L/2), s)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}
