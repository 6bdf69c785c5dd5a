package voronoi

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/nbody"
)

// A fresh pool reserved for a pass (Reset, then Reserve with the pass's
// site count) allocates each arena at most twice over a 4 096-site N-body
// pass — the reservation and at most one growth past it, where append from
// nil made some twenty each — and a second pass over the same sites
// allocates nothing at all.
func TestCellPoolReserveSizesArenasOnce(t *testing.T) {
	sim, err := nbody.New(nbody.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(20, nil)
	pts := sim.Pos
	ids := seqIDs(len(pts))
	ix := NewIndex(pts, ids, 0)
	initBox := geom.BoundingBox(pts).Expand(1)
	s, pool := NewScratch(), new(CellPool)

	var allocs [3]int // verts, faces, loops
	caps := func() [3]int { return [3]int{cap(pool.verts), cap(pool.faces), cap(pool.loops)} }
	// step runs f and charges an allocation to every arena it moved.
	step := func(f func()) {
		before := caps()
		f()
		for a, c := range caps() {
			if c != before[a] {
				allocs[a]++
			}
		}
	}
	pass := func() {
		pool.Reset()
		step(func() { pool.Reserve(len(pts)) })
		for i, site := range pts {
			step(func() {
				if _, err := ComputeCellPooled(ix, site, ids[i], initBox, s, pool); err != nil {
					t.Fatalf("site %d: %v", i, err)
				}
			})
		}
	}
	pass()
	for a, name := range []string{"verts", "faces", "loops"} {
		if allocs[a] < 1 || allocs[a] > 2 {
			t.Errorf("%s arena allocated %d times over a cold pass, want 1 or 2", name, allocs[a])
		}
	}
	if n := testing.AllocsPerRun(1, pass); n != 0 {
		t.Errorf("a second pass made %.0f allocations, want 0", n)
	}
}

// A reservation that creeps up (a block gaining a few sites a step) must not
// reallocate the arenas on every step: the first regrowth leaves headroom.
func TestCellPoolReserveCreepingSize(t *testing.T) {
	pool := new(CellPool)
	pool.Reserve(1000)
	if got := cap(pool.verts); got != 1000*reserveVertsPerCell {
		t.Fatalf("cold reservation has capacity %d, want exactly %d", got, 1000*reserveVertsPerCell)
	}
	pool.Reserve(1001)
	grown := cap(pool.verts)
	for n := 1002; n < 1100; n++ {
		pool.Reserve(n)
	}
	if cap(pool.verts) != grown {
		t.Errorf("arena reallocated again within 10%% of a regrowth (capacity %d, then %d)", grown, cap(pool.verts))
	}
}

// Arena elements reserved per expected cell: the Poisson–Voronoi means
// (27.1 vertices, 15.5 faces of 5.2 vertices each) with a little headroom.
const (
	reserveVertsPerCell = 28
	reserveFacesPerCell = 16
	reserveLoopsPerCell = 84
)

// Reserve, a helper of the tests above, sizes the arenas of an empty pool (a new one, or one just Reset)
// for cells cells of typical shape, so a cold pass fills them without
// append's repeated grow-and-copy, which allocates several times the final
// size and strands it. It does nothing once the capacity is there; a pass
// that outruns the estimate still grows by append.
func (p *CellPool) Reserve(cells int) {
	p.verts = withCap(p.verts, cells*reserveVertsPerCell)
	p.faces = withCap(p.faces, cells*reserveFacesPerCell)
	p.loops = withCap(p.loops, cells*reserveLoopsPerCell)
}
