package voronoi

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
)

// Scratch reuse must be invisible: cells computed through one long-lived
// Scratch are pointwise identical (bit-for-bit) to cells computed fresh.
func TestComputeCellScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const L = 6.0
	pts := perturbedLattice(rng, 5, L, 0.9)
	ids := seqIDs(len(pts))
	ix := NewIndex(pts, ids, 0)
	s := NewScratch()
	for i, site := range pts {
		fresh, err := ComputeCellScratch(ix, site, ids[i], geom.Cube(site, L/2), nil)
		if err != nil {
			t.Fatalf("site %d fresh: %v", i, err)
		}
		reused, err := ComputeCellScratch(ix, site, ids[i], geom.Cube(site, L/2), s)
		if err != nil {
			t.Fatalf("site %d scratch: %v", i, err)
		}
		if fresh.Complete != reused.Complete {
			t.Fatalf("site %d: Complete %v vs %v", i, fresh.Complete, reused.Complete)
		}
		if len(fresh.Verts) != len(reused.Verts) {
			t.Fatalf("site %d: %d verts vs %d", i, len(fresh.Verts), len(reused.Verts))
		}
		for v := range fresh.Verts {
			if fresh.Verts[v] != reused.Verts[v] {
				t.Fatalf("site %d vertex %d: %v vs %v", i, v, fresh.Verts[v], reused.Verts[v])
			}
		}
		if len(fresh.Faces) != len(reused.Faces) {
			t.Fatalf("site %d: %d faces vs %d", i, len(fresh.Faces), len(reused.Faces))
		}
		for f := range fresh.Faces {
			if fresh.Faces[f].Neighbor != reused.Faces[f].Neighbor {
				t.Fatalf("site %d face %d: neighbor %d vs %d",
					i, f, fresh.Faces[f].Neighbor, reused.Faces[f].Neighbor)
			}
			if len(fresh.Faces[f].Loop) != len(reused.Faces[f].Loop) {
				t.Fatalf("site %d face %d: loop %d vs %d",
					i, f, len(fresh.Faces[f].Loop), len(reused.Faces[f].Loop))
			}
			for l := range fresh.Faces[f].Loop {
				if fresh.Faces[f].Loop[l] != reused.Faces[f].Loop[l] {
					t.Fatalf("site %d face %d loop %d differs", i, f, l)
				}
			}
		}
	}
}

// Returned cells must own their memory: computing another cell through the
// same Scratch must not disturb an earlier result.
func TestComputeCellScratchDetaches(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const L = 4.0
	pts := perturbedLattice(rng, 3, L, 0.8)
	ids := seqIDs(len(pts))
	ix := NewIndex(pts, ids, 0)
	s := NewScratch()
	first, err := ComputeCellScratch(ix, pts[0], ids[0], geom.Cube(pts[0], L/2), s)
	if err != nil {
		t.Fatal(err)
	}
	verts := append([]geom.Vec3(nil), first.Verts...)
	vol := first.Volume()
	for i := 1; i < len(pts); i++ {
		if _, err := ComputeCellScratch(ix, pts[i], ids[i], geom.Cube(pts[i], L/2), s); err != nil {
			t.Fatal(err)
		}
	}
	for v := range verts {
		if first.Verts[v] != verts[v] {
			t.Fatalf("vertex %d of the first cell changed after scratch reuse", v)
		}
	}
	if got := first.Volume(); got != vol {
		t.Fatalf("first cell volume changed after scratch reuse: %g vs %g", got, vol)
	}
}

func TestParallelFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, workers := range []int{0, 1, 2, 8, 2000} {
			hits := make([]int32, n)
			var calls atomic.Int32
			chunk := ChunkSize(n, workers)
			ParallelFor(n, workers, func(lo, hi, w int) {
				calls.Add(1)
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d workers=%d: bad range [%d,%d)", n, workers, lo, hi)
				}
				// Ranges are numbered lo/ChunkSize: all but the last are
				// exactly one chunk long.
				if lo%chunk != 0 || (hi-lo != chunk && hi != n) {
					t.Errorf("n=%d workers=%d: range [%d,%d) is not chunk %d of %d", n, workers, lo, hi, lo/chunk, chunk)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
			if n == 0 && calls.Load() != 0 {
				t.Fatalf("workers=%d: fn called for empty range", workers)
			}
		}
	}
}

func TestPoolWorkers(t *testing.T) {
	if got := PoolWorkers(4, 100); got != 4 {
		t.Errorf("PoolWorkers(4, 100) = %d", got)
	}
	if got := PoolWorkers(8, 3); got != 3 {
		t.Errorf("PoolWorkers(8, 3) = %d, want clamp to n", got)
	}
	if got := PoolWorkers(0, 0); got != 1 {
		t.Errorf("PoolWorkers(0, 0) = %d, want at least 1", got)
	}
	if got := PoolWorkers(-1, 100); got < 1 {
		t.Errorf("PoolWorkers(-1, 100) = %d, want GOMAXPROCS-derived >= 1", got)
	}
}
