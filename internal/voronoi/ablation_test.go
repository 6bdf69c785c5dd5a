package voronoi

// The two ablation forks of the kernel — fixed-shell clipping (no security
// radius) and brute-force neighbour search (no grid index) — with the tests
// that hold them to the production kernel and the benchmark pairs that
// price what each design choice buys:
//
//	go test -run '^$' -bench Ablation -benchtime 1x ./internal/voronoi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/nbody"
)

// ComputeCellFixedShells is the ablation baseline for the security-radius
// termination: it clips against every point in grid shells 0..shells
// unconditionally, with no early stop and no proof of completeness. With
// too few shells the cell can be silently wrong; with many shells it does
// redundant work. It exists to quantify what the security-radius criterion
// buys (BenchmarkAblationSecurityRadius).
func ComputeCellFixedShells(ix *Index, site geom.Vec3, id int64, initBox geom.Box, shells int) (*Cell, error) {
	s := NewScratch()
	w, cell := &s.sw, new(Cell)
	if err := w.begin(cell, site, id, initBox); err != nil {
		return nil, err
	}
	siteEps := 1e-12 * initBox.Size().MaxAbs()
	maxShell := ix.MaxShell(site)
	if shells > maxShell {
		shells = maxShell
	}
	for sh := 0; sh <= shells; sh++ {
		s.cands, _ = ix.appendShell(site, sh, math.Inf(1), s.cands[:0])
		heapifyCandidates(s.cands)
		for rest := s.cands; len(rest) > 0; rest = popCandidate(rest) {
			cd := rest[0]
			if cd.dist <= siteEps {
				continue
			}
			w.clip(geom.Bisector(site, ix.pts[cd.idx]), ix.ids[cd.idx])
			if w.empty() {
				w.finishOwned(cell)
				return cell, fmt.Errorf("voronoi: cell of site %v emptied (duplicate points?)", site)
			}
		}
	}
	cell.Complete = !w.hasWall() // no proof; walls are the only signal
	w.finishOwned(cell)
	return cell, nil
}

// ComputeCellBrute is the ablation baseline for the grid-bucketed neighbor
// search: it clips against every indexed point in order of distance,
// stopping only when the remaining points are provably out of cutting
// range. Identical output to ComputeCell, O(n log n) per cell
// (BenchmarkAblationNeighborSearch).
func ComputeCellBrute(pts []geom.Vec3, ids []int64, site geom.Vec3, id int64, initBox geom.Box) (*Cell, error) {
	var w sweep
	cell := new(Cell)
	if err := w.begin(cell, site, id, initBox); err != nil {
		return nil, err
	}
	order := make([]candidate, len(pts))
	for i, p := range pts {
		order[i] = candidate{dist: p.Dist(site), idx: int32(i)}
	}
	heapifyCandidates(order)
	siteEps := 1e-12 * initBox.Size().MaxAbs()
	secure := false
	for ; len(order) > 0; order = popCandidate(order) {
		o := order[0]
		if o.dist <= siteEps {
			continue
		}
		if o.dist >= 2*w.maxR() {
			secure = true
			break
		}
		w.clip(geom.Bisector(site, pts[o.idx]), ids[o.idx])
		if w.empty() {
			w.finishOwned(cell)
			return cell, fmt.Errorf("voronoi: cell of site %v emptied (duplicate points?)", site)
		}
	}
	if !secure {
		// Exhausted every point: the cell is exact with respect to the
		// input set, which is all the brute force can promise.
		secure = true
	}
	cell.Complete = secure && !w.hasWall()
	w.finishOwned(cell)
	return cell, nil
}

func TestAblationVariantsMatchComputeCell(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const L = 6.0
	pts := perturbedLattice(rng, 6, L, 0.8)
	ids := seqIDs(len(pts))
	ix := NewIndex(pts, ids, 0)
	for i := 0; i < len(pts); i += 13 {
		site := pts[i]
		box := geom.Cube(site, L/2)
		ref, err := ComputeCellScratch(ix, site, ids[i], box, nil)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := ComputeCellBrute(pts, ids, site, ids[i], box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ref.Volume()-brute.Volume()) > 1e-9 || len(ref.Faces) != len(brute.Faces) {
			t.Fatalf("site %d: brute force differs (vol %v vs %v, faces %d vs %d)",
				i, ref.Volume(), brute.Volume(), len(ref.Faces), len(brute.Faces))
		}
		// Generous fixed shell count reproduces the cell (at higher cost).
		fixed, err := ComputeCellFixedShells(ix, site, ids[i], box, ix.MaxShell(site))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ref.Volume()-fixed.Volume()) > 1e-9 {
			t.Fatalf("site %d: fixed shells differs (vol %v vs %v)", i, ref.Volume(), fixed.Volume())
		}
	}
}

func TestFixedShellsTooFewIsWrong(t *testing.T) {
	// The point of the security radius: with shells fixed too small, some
	// cell somewhere is wrong, and nothing flags it.
	rng := rand.New(rand.NewSource(102))
	const L = 8.0
	pts := perturbedLattice(rng, 8, L, 0.9)
	ids := seqIDs(len(pts))
	ix := NewIndex(pts, ids, 0)
	wrong := 0
	for i := 0; i < len(pts); i += 7 {
		site := pts[i]
		box := geom.Cube(site, L/2)
		ref, err := ComputeCellScratch(ix, site, ids[i], box, nil)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := ComputeCellFixedShells(ix, site, ids[i], box, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ref.Volume()-fixed.Volume()) > 1e-9*ref.Volume() {
			wrong++
		}
	}
	if wrong == 0 {
		t.Error("0-shell cells were all accidentally correct; ablation baseline is not exercising anything")
	}
}

// ablationSites is the benchmarks' input: the 8^3 particles of an N-body
// run after 40 steps, in a box of side 8.
func ablationSites(b *testing.B) ([]geom.Vec3, []int64) {
	b.Helper()
	sim, err := nbody.New(nbody.DefaultConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	sim.Run(40, nil)
	return sim.Pos, seqIDs(len(sim.Pos))
}

// BenchmarkAblationSecurityRadius compares adaptive security-radius
// termination against fixed-shell clipping with a generous shell count.
func BenchmarkAblationSecurityRadius_Adaptive(b *testing.B) { benchSecurity(b, true) }
func BenchmarkAblationSecurityRadius_Fixed(b *testing.B)    { benchSecurity(b, false) }

func benchSecurity(b *testing.B, adaptive bool) {
	pts, ids := ablationSites(b)
	ix := NewIndex(pts, ids, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(pts); j += 4 {
			box := geom.Cube(pts[j], 4)
			var err error
			if adaptive {
				_, err = ComputeCellScratch(ix, pts[j], ids[j], box, nil)
			} else {
				_, err = ComputeCellFixedShells(ix, pts[j], ids[j], box, ix.MaxShell(pts[j]))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationNeighborSearch compares the grid-bucket shell traversal
// against brute-force distance sorting.
func BenchmarkAblationNeighborSearch_Grid(b *testing.B)  { benchSearch(b, true) }
func BenchmarkAblationNeighborSearch_Brute(b *testing.B) { benchSearch(b, false) }

func benchSearch(b *testing.B, grid bool) {
	pts, ids := ablationSites(b)
	ix := NewIndex(pts, ids, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(pts); j += 8 {
			box := geom.Cube(pts[j], 4)
			var err error
			if grid {
				_, err = ComputeCellScratch(ix, pts[j], ids[j], box, nil)
			} else {
				_, err = ComputeCellBrute(pts, ids, pts[j], ids[j], box)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
