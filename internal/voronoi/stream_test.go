package voronoi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
)

// Shell returns the points whose grid cell is at Chebyshev distance exactly
// s from the cell containing p, sorted by Euclidean distance to p (equal
// distances by point index). Shell 0 is p's own cell.
func (ix *Index) Shell(p geom.Vec3, s int) []ShellPoint {
	cands, _ := ix.appendShell(p, s, math.Inf(1), nil)
	heapifyCandidates(cands)
	out := make([]ShellPoint, 0, len(cands))
	for ; len(cands) > 0; cands = popCandidate(cands) {
		c := cands[0]
		out = append(out, ShellPoint{Idx: int(c.idx), ID: ix.ids[c.idx], Pos: ix.pts[c.idx], Dist: c.dist})
	}
	return out
}

// refIndex is the test-only reference for the candidate stream: it knows
// every point's grid cell and answers shell queries by scanning all of
// them, sharing only cellCoords with the production traversal.
type refIndex struct {
	ix     *Index
	coords [][3]int
}

func newRefIndex(ix *Index) *refIndex {
	r := &refIndex{ix: ix, coords: make([][3]int, len(ix.pts))}
	for i, p := range ix.pts {
		r.coords[i] = ix.cellCoords(p)
	}
	return r
}

// shell is the unpruned shell: every point whose grid cell is at Chebyshev
// distance exactly s from p's, sorted by (Dist, Idx).
func (r *refIndex) shell(p geom.Vec3, s int) []ShellPoint {
	c := r.ix.cellCoords(p)
	var out []ShellPoint
	for i, pc := range r.coords {
		d := 0
		for a := 0; a < 3; a++ {
			if pc[a] > c[a] {
				d = max(d, pc[a]-c[a])
			} else {
				d = max(d, c[a]-pc[a])
			}
		}
		if d == s {
			q := r.ix.pts[i]
			out = append(out, ShellPoint{Idx: i, ID: r.ix.ids[i], Pos: q, Dist: q.Dist(p)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Idx < out[j].Idx
	})
	return out
}

// refResult is what the reference sweep reports beside the cell.
type refResult struct {
	cell   *Cell
	err    error
	counts KernelCounts // Shells, Gathered (whole shells), Tested, Cut
	// growthUlps is the largest number of ulps by which one clip raised
	// MaxVertexDist (0 when it never grew).
	growthUlps uint64
}

// referenceCell is the sweep the pruned candidate stream replaced, kept as
// the oracle: gather every shell whole, sort it, walk it until the first
// candidate out of cutting range.
func referenceCell(r *refIndex, site geom.Vec3, id int64, initBox geom.Box) refResult {
	ix := r.ix
	var w sweep
	cell := new(Cell)
	if err := w.begin(cell, site, id, initBox); err != nil {
		return refResult{err: err}
	}
	res := refResult{cell: cell}
	h := ix.MinCellSize()
	maxShell := ix.MaxShell(site)
	secure := false
	siteEps := 1e-12 * initBox.Size().MaxAbs()
sweep:
	for sh := 0; sh <= maxShell; sh++ {
		shell := r.shell(site, sh)
		res.counts.Shells++
		res.counts.Gathered += int64(len(shell))
		maxR := w.maxR()
		for _, sp := range shell {
			if sp.Dist <= siteEps {
				continue
			}
			if sp.Dist >= 2*maxR {
				break
			}
			res.counts.Tested++
			if w.clip(geom.Bisector(site, sp.Pos), sp.ID) {
				res.counts.Cut++
				if w.empty() {
					res.err = fmt.Errorf("voronoi: cell of site %v emptied by %v (duplicate points?)", site, sp.Pos)
					break sweep
				}
				after := w.maxR()
				if after > maxR {
					res.growthUlps = max(res.growthUlps, math.Float64bits(after)-math.Float64bits(maxR))
				}
				maxR = after
			}
		}
		if float64(sh)*h >= 2*w.maxR() {
			secure = true
			break
		}
	}
	if res.err == nil {
		cell.Complete = secure && !w.hasWall()
	}
	w.finishOwned(cell)
	return res
}

// cellDiff describes the first bitwise difference between two cells, or
// returns "" when Verts, every Face and Complete are identical.
func cellDiff(a, b *Cell) string {
	if a.Complete != b.Complete {
		return fmt.Sprintf("Complete %v vs %v", a.Complete, b.Complete)
	}
	if len(a.Verts) != len(b.Verts) {
		return fmt.Sprintf("%d verts vs %d", len(a.Verts), len(b.Verts))
	}
	for i := range a.Verts {
		if a.Verts[i] != b.Verts[i] {
			return fmt.Sprintf("vertex %d: %v vs %v", i, a.Verts[i], b.Verts[i])
		}
	}
	if len(a.Faces) != len(b.Faces) {
		return fmt.Sprintf("%d faces vs %d", len(a.Faces), len(b.Faces))
	}
	for f := range a.Faces {
		if a.Faces[f].Neighbor != b.Faces[f].Neighbor {
			return fmt.Sprintf("face %d: neighbor %d vs %d", f, a.Faces[f].Neighbor, b.Faces[f].Neighbor)
		}
		if len(a.Faces[f].Loop) != len(b.Faces[f].Loop) {
			return fmt.Sprintf("face %d: loop length %d vs %d", f, len(a.Faces[f].Loop), len(b.Faces[f].Loop))
		}
		for l := range a.Faces[f].Loop {
			if a.Faces[f].Loop[l] != b.Faces[f].Loop[l] {
				return fmt.Sprintf("face %d loop entry %d: %d vs %d", f, l, a.Faces[f].Loop[l], b.Faces[f].Loop[l])
			}
		}
	}
	return ""
}

func uniformPts(rng *rand.Rand, n int, L float64) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L)
	}
	return pts
}

type streamCloud struct {
	name string
	pts  []geom.Vec3
	// wantEmptied: the cloud holds near-duplicate pairs, so some cells
	// must report the emptied-cell error (on both sides).
	wantEmptied bool
}

// streamClouds are the inputs the pruning must be invisible on: shallow and
// deep shells, buckets holding hundreds of points and none, exact distance
// ties, duplicates, and indexes too small to have an interior.
func streamClouds() []streamCloud {
	rng := rand.New(rand.NewSource(131))
	cp := cosmo.DefaultClusterParams()
	cp.Seed = 7
	// Exact duplicates sit within siteEps of their twin and are skipped like
	// the site itself; a pair of near-duplicates on opposite sides, farther
	// than siteEps but nearer than the clip tolerance, is what empties a
	// cell: the second bisector finds nothing strictly on its inner side.
	dup := uniformPts(rng, 300, 6)
	dup = append(dup, dup[:20]...)
	for _, p := range dup[20:30] {
		dup = append(dup, p.Add(geom.V(1e-10, 0, 0)), p.Sub(geom.V(1e-10, 0, 0)))
	}
	clouds := []streamCloud{
		{name: "uniform", pts: uniformPts(rng, 1500, 10)},
		{name: "clustered", pts: cosmo.ClusteredPositions(2500, 12, cp)},
		{name: "jittered-lattice", pts: perturbedLattice(rng, 8, 8, 0.5)},
		{name: "exact-lattice", pts: latticePts(8, 8)},
		{name: "duplicates", pts: dup, wantEmptied: true},
	}
	for n := 1; n < 8; n++ {
		clouds = append(clouds, streamCloud{name: fmt.Sprintf("%d-points", n), pts: uniformPts(rng, n, 3)})
	}
	return clouds
}

// The pruned candidate stream must be invisible: ComputeCellPooled through
// one retained Scratch and CellPool equals the unpruned reference sweep bit
// for bit, error included, on every site of every cloud (sites in the
// outermost buckets of the index among them), and tests and cuts exactly
// the planes the reference does.
func TestComputeCellMatchesReferenceSweep(t *testing.T) {
	for _, cl := range streamClouds() {
		t.Run(cl.name, func(t *testing.T) {
			ids := seqIDs(len(cl.pts))
			ix := NewIndex(cl.pts, ids, 0)
			ref := newRefIndex(ix)
			initBox := geom.BoundingBox(cl.pts).Expand(1)
			s, pool := NewScratch(), new(CellPool)
			var want KernelCounts
			emptied, outer := 0, 0
			for i, site := range cl.pts {
				r := referenceCell(ref, site, ids[i], initBox)
				got, err := ComputeCellPooled(ix, site, ids[i], initBox, s, pool)
				if (err == nil) != (r.err == nil) || (err != nil && err.Error() != r.err.Error()) {
					t.Fatalf("site %d: error %v, reference %v", i, err, r.err)
				}
				if err != nil {
					emptied++
				}
				if d := cellDiff(got, r.cell); d != "" {
					t.Fatalf("site %d: %s", i, d)
				}
				want.Add(r.counts)
				c := ix.cellCoords(site)
				for a := 0; a < 3; a++ {
					if c[a] == 0 || c[a] == ix.dims[a]-1 {
						outer++
						break
					}
				}
			}
			got := s.TakeCounts()
			if got.Shells != want.Shells || got.Tested != want.Tested || got.Cut != want.Cut {
				t.Errorf("funnel %+v, reference %+v: pruning changed what was tested", got, want)
			}
			if got.Gathered > want.Gathered || got.Sorted > got.Gathered || got.Tested > got.Sorted {
				t.Errorf("funnel %+v is not a funnel (reference gathered %d)", got, want.Gathered)
			}
			if (emptied > 0) != cl.wantEmptied {
				t.Errorf("%d emptied cells, wantEmptied=%v", emptied, cl.wantEmptied)
			}
			if outer == 0 {
				t.Error("no site in an outermost bucket")
			}
			if (s.TakeCounts() != KernelCounts{}) {
				t.Error("TakeCounts did not reset the counts")
			}
			t.Logf("%d cells: gathered %d (whole shells %d), sorted %d, tested %d, cut %d",
				len(cl.pts), got.Gathered, want.Gathered, got.Sorted, got.Tested, got.Cut)
		})
	}
}

// The invariant the prune rests on: clipping adds vertices only on edges of
// the old convex cell, so a clip never raises MaxVertexDist — in floating
// point, never by more than an ulp, which pruneSlack covers many times over.
func TestClipNeverGrowsMaxR(t *testing.T) {
	for _, cl := range streamClouds() {
		ids := seqIDs(len(cl.pts))
		ref := newRefIndex(NewIndex(cl.pts, ids, 0))
		initBox := geom.BoundingBox(cl.pts).Expand(1)
		for i, site := range cl.pts {
			if g := referenceCell(ref, site, ids[i], initBox).growthUlps; g > 1 {
				t.Errorf("%s site %d: a clip raised MaxVertexDist by %d ulps", cl.name, i, g)
			}
		}
	}
}

// appendShell with any cutoff is exactly the unpruned shell filtered by
// Dist < cutoff, in the same order once streamed — the bucket skip may only
// save time — and a recycled buffer changes nothing.
func TestAppendShellIsFilteredShell(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	cp := cosmo.DefaultClusterParams()
	cp.Seed = 9
	var buf []candidate
	for _, cl := range []streamCloud{
		{name: "uniform", pts: uniformPts(rng, 600, 10)},
		{name: "clustered", pts: cosmo.ClusteredPositions(800, 10, cp)},
		{name: "lattice", pts: latticePts(6, 6)},
	} {
		name, pts := cl.name, cl.pts
		ix := NewIndex(pts, seqIDs(len(pts)), 0)
		ref := newRefIndex(ix)
		queries := append([]geom.Vec3{
			geom.V(-3, 5, 5), geom.V(14, 14, -2), // outside the index bounds
		}, pts[:12]...)
		for i := 0; i < 12; i++ {
			queries = append(queries, geom.V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10))
		}
		for _, q := range queries {
			for s := 0; s <= ix.MaxShell(q); s++ {
				full := ref.shell(q, s)
				cutoffs := []float64{0, math.Inf(1), rng.Float64() * 12, rng.Float64() * 3}
				if len(full) > 0 {
					// Exactly some point's distance: that point is out.
					cutoffs = append(cutoffs, full[rng.Intn(len(full))].Dist)
				}
				for _, cutoff := range cutoffs {
					var measured int
					buf, measured = ix.appendShell(q, s, cutoff, buf[:0])
					got := drain(buf)
					var want []ShellPoint
					for _, sp := range full {
						if sp.Dist < cutoff {
							want = append(want, sp)
						}
					}
					if len(got) != len(want) || measured < len(got) || measured > len(full) {
						t.Fatalf("%s q=%v shell %d cutoff %v: %d candidates of %d measured, want %d of at most %d",
							name, q, s, cutoff, len(got), measured, len(want), len(full))
					}
					for i, sp := range want {
						if int(got[i].idx) != sp.Idx || got[i].dist != sp.Dist {
							t.Fatalf("%s q=%v shell %d cutoff %v entry %d: %+v, want %+v",
								name, q, s, cutoff, i, got[i], sp)
						}
					}
				}
				got := ix.Shell(q, s)
				if len(got) != len(full) {
					t.Fatalf("%s q=%v: Shell(%d) has %d points, want %d", name, q, s, len(got), len(full))
				}
				for i := range full {
					if got[i] != full[i] {
						t.Fatalf("%s q=%v: Shell(%d) entry %d: %+v, want %+v", name, q, s, i, got[i], full[i])
					}
				}
			}
		}
	}
}

// drain pops a heapified candidate slice empty, returning the stream.
func drain(a []candidate) []candidate {
	heapifyCandidates(a)
	out := make([]candidate, 0, len(a))
	for ; len(a) > 0; a = popCandidate(a) {
		out = append(out, a[0])
	}
	return out
}

// The candidate order is total: whatever order the heap is built from,
// candidates stream nearest first and equal distances by point index.
func TestCandidateStreamTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, n := range []int{0, 1, 2, 3, 11, 12, 13, 100, 1000} {
		a := make([]candidate, n)
		for i := range a {
			a[i] = candidate{idx: int32(i), dist: float64(rng.Intn(50))} // many ties
		}
		rng.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		want := append([]candidate(nil), a...)
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		got := drain(a)
		if len(got) != n {
			t.Fatalf("n=%d: streamed %d candidates", n, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d entry %d: %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}
