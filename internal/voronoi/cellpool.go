package voronoi

import "repro/internal/geom"

// cellPoolChunk is the number of Cell structs per pool chunk. Chunks are
// never reallocated once handed out, so pointers into them stay stable
// while the pool grows.
const cellPoolChunk = 256

// CellPool is a retention arena for finished cells: ComputeCellPooled
// detaches each cell it builds into the pool instead of into fresh
// heap slices, and Reset reclaims every cell's storage at once, so with a
// retained pool the steady-state cost of a cell drops from four
// allocations (struct, vertices, faces, loop arena) to zero. It serves
// the bench's layer replay (which times meshio.MeshBuilder.Build over a
// block's cells held together) and the tests; the session does not hold a
// block's cells at once — its workers weld each cell as it is finished
// (ComputeCellReused, meshio.Fragment).
//
// Cells handed out by a pool are valid until the pool's next Reset; they
// must not be retained past it (the session's output loan rule). The pool
// is not safe for concurrent use; give each worker its own.
//
// The pool holds finished cells only — never live Scratch buffers: finish
// copies the cell out of the sweep onto the pool's arenas.
type CellPool struct {
	// chunks hold the Cell structs; a chunk's backing array is fixed at
	// creation (append never outgrows cellPoolChunk), so &chunk[i] stays
	// valid while later cells allocate new chunks.
	chunks [][]Cell
	cur    int

	// Arenas for the detached slice data. These grow by append; a growth
	// reallocation strands the old array, but cells carved from it remain
	// valid (three-index subslices, kept alive by the cells themselves)
	// and the next Reset reuses only the final, largest array.
	verts []geom.Vec3
	faces []Face
	loops []int
}

// Reset reclaims every cell previously handed out, keeping all storage
// for reuse. Cells obtained before the Reset must no longer be read.
func (p *CellPool) Reset() {
	for i := range p.chunks {
		p.chunks[i] = p.chunks[i][:0]
	}
	p.cur = 0
	p.verts = p.verts[:0]
	p.faces = p.faces[:0]
	p.loops = p.loops[:0]
}

// withCap returns s emptied, with room for n elements. A first allocation is
// exact; replacing storage that has become too small leaves append's
// quarter of headroom, so a size that creeps up from step to step does not
// reallocate on every one of them.
func withCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	if cap(s) > 0 {
		n += n / 4
	}
	return make([]T, 0, n)
}

// nextCell returns a zeroed *Cell with pool-stable identity.
func (p *CellPool) nextCell() *Cell {
	for p.cur < len(p.chunks) && len(p.chunks[p.cur]) == cap(p.chunks[p.cur]) {
		p.cur++
	}
	if p.cur == len(p.chunks) {
		p.chunks = append(p.chunks, make([]Cell, 0, cellPoolChunk))
	}
	c := p.chunks[p.cur]
	c = append(c, Cell{})
	p.chunks[p.cur] = c
	return &c[len(c)-1]
}

// finish writes the cell w has built onto the pool's arenas, with exactly
// the content sweep.finishOwned would give it.
func (p *CellPool) finish(w *sweep, c *Cell) {
	p.verts, p.faces, p.loops = w.finish(c, p.verts, p.faces, p.loops)
}
