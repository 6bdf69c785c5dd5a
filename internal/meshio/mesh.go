// Package meshio implements the analysis data model of the paper's
// Sec. III-C2 and its storage: each block holds a conventional unstructured
// mesh — vertices listed once, integer indices connecting vertices into
// faces and cells, in flat rows laid out as both encodings store them —
// plus the original particle locations, per-cell volumes and surface
// areas, and the block extents. Blocks serialize to a compact
// binary form written collectively through internal/diy into a single file,
// and can be exported as legacy-VTK polydata for visualization (the
// stand-in for the paper's ParaView plugin rendering path).
package meshio

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/voronoi"
)

// BlockMesh is the per-block analysis data model. Its connectivity is
// compressed rows: cell c's faces are [Faces(c)) of Neighbors and LoopEnds,
// and face f's vertex loop is Loop(f), a run of LoopVerts. Each row array
// holds end offsets, so its length is its element count and the zero mesh
// is an empty one.
type BlockMesh struct {
	// Extents is the block's region of the global domain.
	Extents geom.Box
	// Verts is the shared vertex pool; vertices on faces between adjacent
	// cells are stored once (the paper: each vertex is shared by ~5 cells).
	Verts []geom.Vec3
	// Particles are the cell sites (original particle positions).
	Particles []geom.Vec3
	// ParticleIDs are the global particle IDs, aligned with Particles.
	ParticleIDs []int64
	// Volumes and Areas are per-cell scalars, aligned with Particles.
	Volumes []float64
	Areas   []float64
	// Complete flags cells proven correct by the ghost exchange.
	Complete []bool
	// FaceEnds[c] is one past cell c's last face, aligned with Particles.
	FaceEnds []int
	// Neighbors[f] is the particle ID across face f (negative for walls of
	// the computation box; see voronoi.Wall*).
	Neighbors []int64
	// LoopEnds[f] is one past face f's last entry in LoopVerts, aligned
	// with Neighbors.
	LoopEnds []int
	// LoopVerts holds every face loop: indices into Verts, each loop
	// ordered counterclockwise viewed from outside its cell.
	LoopVerts []int32
}

// NumCells returns the number of cells in the block.
func (m *BlockMesh) NumCells() int { return len(m.Particles) }

// Faces returns the range [lo, hi) of cell c's faces.
func (m *BlockMesh) Faces(c int) (lo, hi int) {
	if c > 0 {
		lo = m.FaceEnds[c-1]
	}
	return lo, m.FaceEnds[c]
}

// Loop returns face f's vertex loop, a sub-slice of LoopVerts.
func (m *BlockMesh) Loop(f int) []int32 {
	lo, hi := 0, m.LoopEnds[f]
	if f > 0 {
		lo = m.LoopEnds[f-1]
	}
	return m.LoopVerts[lo:hi:hi]
}

// reset empties m, keeping its storage, with room for verts vertices,
// cells cells, faces faces and refs loop entries.
func (m *BlockMesh) reset(verts, cells, faces, refs int) {
	m.Verts = withCap(m.Verts, verts)
	m.Particles = withCap(m.Particles, cells)
	m.ParticleIDs = withCap(m.ParticleIDs, cells)
	m.Volumes = withCap(m.Volumes, cells)
	m.Areas = withCap(m.Areas, cells)
	m.Complete = withCap(m.Complete, cells)
	m.FaceEnds = withCap(m.FaceEnds, cells)
	m.Neighbors = withCap(m.Neighbors, faces)
	m.LoopEnds = withCap(m.LoopEnds, faces)
	m.LoopVerts = withCap(m.LoopVerts, refs)
}

// endFace closes the face whose loop was appended to LoopVerts since the
// previous one.
func (m *BlockMesh) endFace(neighbor int64) {
	m.Neighbors = append(m.Neighbors, neighbor)
	m.LoopEnds = append(m.LoopEnds, len(m.LoopVerts))
}

// endCell closes the cell whose faces were closed since the previous one.
func (m *BlockMesh) endCell(site geom.Vec3, id int64, volume, area float64, complete bool) {
	m.Particles = append(m.Particles, site)
	m.ParticleIDs = append(m.ParticleIDs, id)
	m.Volumes = append(m.Volumes, volume)
	m.Areas = append(m.Areas, area)
	m.Complete = append(m.Complete, complete)
	m.FaceEnds = append(m.FaceEnds, len(m.Neighbors))
}

// weld quantizes a coordinate for vertex dedup across cells in a block.
type weldKey struct{ x, y, z int64 }

// quantize rounds v to the weld grid of spacing tol.
func quantize(v geom.Vec3, tol float64) weldKey {
	return weldKey{
		x: int64(roundHalf(v.X / tol)),
		y: int64(roundHalf(v.Y / tol)),
		z: int64(roundHalf(v.Z / tol)),
	}
}

// weldTable maps a quantized coordinate to its index in BlockMesh.Verts:
// open addressing with linear probing over a power-of-two slot array kept
// at most half full. A slot belongs to the current Build only if it carries
// the current stamp, so starting a Build bumps the stamp instead of
// clearing the slots.
type weldTable struct {
	slots []weldSlot
	n     int // slots carrying the current stamp
	stamp uint32
}

type weldSlot struct {
	key   weldKey
	gi    int32
	stamp uint32
}

// reset empties the table for a new Build, keeping its storage.
func (t *weldTable) reset() {
	t.n = 0
	t.stamp++
	if t.stamp == 0 { // wrapped: stale slots could pass for current ones
		clear(t.slots)
		t.stamp = 1
	}
}

func (k weldKey) hash() uint64 {
	h := uint64(k.x)*0x9E3779B97F4A7C15 ^ uint64(k.y)*0xC2B2AE3D27D4EB4F ^ uint64(k.z)*0x165667B19E3779F9
	return h ^ h>>29
}

// slot returns the slot holding k, or the empty one where k belongs.
func (t *weldTable) slot(k weldKey) *weldSlot {
	mask := uint64(len(t.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.stamp != t.stamp || s.key == k {
			return s
		}
	}
}

// lookupOrAdd returns the index recorded for k, recording next first if k
// is new; added reports which.
func (t *weldTable) lookupOrAdd(k weldKey, next int32) (gi int32, added bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	s := t.slot(k)
	if s.stamp == t.stamp {
		return s.gi, false
	}
	*s = weldSlot{key: k, gi: next, stamp: t.stamp}
	t.n++
	return next, true
}

// reserve sizes an empty table (one just reset) to take n entries without
// growing.
func (t *weldTable) reserve(n int) {
	size := 1024
	for size < 2*n {
		size *= 2
	}
	if size > len(t.slots) {
		t.slots = make([]weldSlot, size)
	}
}

// grow doubles the slot array and rehashes the current stamp's entries.
func (t *weldTable) grow() {
	old := t.slots
	t.slots = make([]weldSlot, max(1024, 2*len(old)))
	for _, s := range old {
		if s.stamp == t.stamp {
			*t.slot(s.key) = s
		}
	}
}

// Elements a Fragment reserves per expected cell: the Poisson–Voronoi
// means (15.5 faces of 5.2 vertices each, 27.1 vertices each shared by
// four cells) with a little headroom. A fragment that outgrows them grows
// by append and keeps the larger arrays for the next pass. Weld tables
// are reserved at the floor instead (see Stitch).
const (
	reserveFacesPerCell = 16
	reserveRefsPerCell  = 84
	reserveVertsPerCell = 8
)

// Fragment is the welded mesh of a run of consecutive cells — one
// ParallelFor chunk of a block's sites — built by a Welder as each cell is
// finished, so a cell's own geometry can be dropped at once. Its mesh's
// vertices are numbered locally, in order of first reference, each at its
// first reference's coordinates; MeshBuilder.Stitch gives them their
// block-wide numbers. Its storage is retained across passes.
type Fragment struct {
	tol float64
	m   BlockMesh
	// fresh lists, ascending, the local vertices that never entered the
	// weld table (see Welder.Add).
	fresh []int32
}

// Welder fills Fragments one at a time: it holds the weld table of the
// fragment being filled, which is needed only until the fragment is full,
// so a worker keeps one Welder for all the fragments it fills. A Welder is
// not safe for concurrent use.
type Welder struct {
	f   *Fragment
	tab weldTable

	// welded maps the current cell's vertex index to its local id (-1
	// until first referenced), so a vertex is quantized and looked up once
	// per cell rather than once per face it sits on.
	welded []int32
	// owner is, per local id, the last fragment cell that referenced it.
	owner []int32
}

// Begin empties f, keeping its storage, for up to cells cells of a block
// with the given extents, and makes it the fragment Add fills. weldTol is
// as for MeshBuilder.Build; every fragment of one Stitch must be begun
// with the same extents and weldTol.
func (w *Welder) Begin(f *Fragment, extents geom.Box, weldTol float64, cells int) {
	if weldTol <= 0 {
		weldTol = 1e-7 * max(extents.Size().MaxAbs(), 1e-30)
	}
	w.f = f
	w.tab.reset()
	w.tab.reserve(cells * reserveRefsPerCell / 12) // the floor, as in Stitch
	w.owner = w.owner[:0]
	f.tol = weldTol
	f.fresh = f.fresh[:0]
	f.m.Extents = extents
	f.m.reset(cells*reserveVertsPerCell, cells, cells*reserveFacesPerCell, cells*reserveRefsPerCell)
}

// Add welds c into the current fragment with the given volume and area; c
// can be dropped or overwritten as soon as Add returns. Two vertices of one
// cell never weld: a vertex whose key resolves to a local id that another
// vertex of the cell took gets a fresh local vertex, which never enters
// the table, so an edge shorter than the weld tolerance keeps both ends.
func (w *Welder) Add(c *voronoi.Cell, volume, area float64) {
	m := &w.f.m
	cell := int32(m.NumCells())
	w.welded = w.welded[:0]
	for range c.Verts {
		w.welded = append(w.welded, -1)
	}
	for _, face := range c.Faces {
		for _, vi := range face.Loop {
			// Resolved on first reference, in loop order, so the local
			// vertices are ordered as if every reference probed the table.
			li := w.welded[vi]
			if li < 0 {
				v := c.Verts[vi]
				var added bool
				li, added = w.tab.lookupOrAdd(quantize(v, w.f.tol), int32(len(m.Verts)))
				if !added && w.owner[li] == cell {
					li, added = int32(len(m.Verts)), true
					w.f.fresh = append(w.f.fresh, li)
				}
				if added {
					m.Verts = append(m.Verts, v)
					w.owner = append(w.owner, cell)
				}
				w.owner[li] = cell
				w.welded[vi] = li
			}
			m.LoopVerts = append(m.LoopVerts, li)
		}
		m.endFace(face.Neighbor)
	}
	m.endCell(c.Site, c.SiteID, volume, area, c.Complete)
}

// MeshBuilder assembles BlockMeshes with retained state: the mesh's
// arrays, the block weld table, and the fragment Build welds into, are
// reused across calls, so rebuilding a mesh of stable size allocates
// almost nothing. The built mesh is a loan — it is valid only until the
// builder's next Build or Stitch, or the stitched fragments' next Begin.
// The zero MeshBuilder is ready to use; a builder is not safe for
// concurrent use.
type MeshBuilder struct {
	m     BlockMesh
	tab   weldTable
	remap []int32 // a fragment's local vertex id -> index in m.Verts

	// Build's own fragment and welder.
	frag [1]Fragment
	w    Welder
}

// Build assembles the data model from computed cells into the builder's
// retained storage, welding vertices shared between adjacent cells. weldTol
// is the absolute coordinate quantum used for welding; pass 0 for a default
// of 1e-7 of the extents' largest side. It is one Fragment over every cell
// and a Stitch of it. The previous Build's mesh is invalidated.
func (b *MeshBuilder) Build(cells []*voronoi.Cell, extents geom.Box, weldTol float64) *BlockMesh {
	b.w.Begin(&b.frag[0], extents, weldTol, len(cells))
	for _, c := range cells {
		b.w.Add(c, c.Volume(), c.Area())
	}
	return b.Stitch(b.frag[:], extents)
}

// Stitch assembles the block mesh of frags, fragments of consecutive runs
// of the block's cells given in cell order. One fragment's local ids are
// its block ids, so its own mesh is returned. Otherwise, into the
// builder's retained storage, each fragment's local vertices, in local
// order, get their index in m.Verts by their weld key, a new key — or a
// fresh vertex, without a probe — taking the next index and its
// coordinates, and the fragment's rows are appended with their loops
// rewritten to those indices. The result is byte-identical to one Build
// over all the cells in order, however they were split: Build numbers a
// key at its first reference, that is its first reference in the earliest
// fragment that holds it, and keys new in one fragment keep their local
// order.
func (b *MeshBuilder) Stitch(frags []Fragment, extents geom.Box) *BlockMesh {
	if len(frags) == 1 {
		return &frags[0].m
	}
	// The vertex pool is sized at Σ local vertices, an upper bound. The
	// block table is reserved by estimate: a cell's vertex sits on three of
	// its faces and is shared by four cells, so a block has about one
	// vertex per twelve references — the floor, since a table one doubling
	// too large costs every probe of every later Stitch a cache miss, where
	// one too small costs a single rehash.
	var nVerts, nCells, nFaces, nRefs int
	for i := range frags {
		f := &frags[i].m
		nVerts += len(f.Verts)
		nCells += f.NumCells()
		nFaces += len(f.Neighbors)
		nRefs += len(f.LoopVerts)
	}
	m := &b.m
	m.Extents = extents
	m.reset(nVerts, nCells, nFaces, nRefs)
	b.tab.reset()
	b.tab.reserve(nRefs / 12)
	for i := range frags {
		f := &frags[i]
		b.remap = b.remap[:0]
		fresh := f.fresh
		for li, v := range f.m.Verts {
			gi, added := int32(len(m.Verts)), true
			if len(fresh) > 0 && int(fresh[0]) == li {
				fresh = fresh[1:]
			} else {
				gi, added = b.tab.lookupOrAdd(quantize(v, f.tol), gi)
			}
			if added {
				m.Verts = append(m.Verts, v)
			}
			b.remap = append(b.remap, gi)
		}
		m.appendCells(&f.m, b.remap)
	}
	return m
}

// appendCells appends src's cells to m, their loops' vertex ids mapped
// through remap.
func (m *BlockMesh) appendCells(src *BlockMesh, remap []int32) {
	faceBase, loopBase := len(m.Neighbors), len(m.LoopVerts)
	for _, e := range src.FaceEnds {
		m.FaceEnds = append(m.FaceEnds, faceBase+e)
	}
	for _, e := range src.LoopEnds {
		m.LoopEnds = append(m.LoopEnds, loopBase+e)
	}
	for _, li := range src.LoopVerts {
		m.LoopVerts = append(m.LoopVerts, remap[li])
	}
	m.Neighbors = append(m.Neighbors, src.Neighbors...)
	m.Particles = append(m.Particles, src.Particles...)
	m.ParticleIDs = append(m.ParticleIDs, src.ParticleIDs...)
	m.Volumes = append(m.Volumes, src.Volumes...)
	m.Areas = append(m.Areas, src.Areas...)
	m.Complete = append(m.Complete, src.Complete...)
}

// Clone returns a deep copy of the mesh that owns all of its memory,
// detaching it from any builder or session loan it came from.
func (m *BlockMesh) Clone() *BlockMesh {
	return &BlockMesh{
		Extents:     m.Extents,
		Verts:       slices.Clone(m.Verts),
		Particles:   slices.Clone(m.Particles),
		ParticleIDs: slices.Clone(m.ParticleIDs),
		Volumes:     slices.Clone(m.Volumes),
		Areas:       slices.Clone(m.Areas),
		Complete:    slices.Clone(m.Complete),
		FaceEnds:    slices.Clone(m.FaceEnds),
		Neighbors:   slices.Clone(m.Neighbors),
		LoopEnds:    slices.Clone(m.LoopEnds),
		LoopVerts:   slices.Clone(m.LoopVerts),
	}
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

func roundHalf(x float64) float64 {
	if x >= 0 {
		return float64(int64(x + 0.5))
	}
	return float64(int64(x - 0.5))
}

// Stats summarizes the data-model shape numbers the paper reports
// (Sec. III-C2): faces per cell, vertices per face, vertex sharing, and the
// byte split between floating-point geometry and integer connectivity, of
// the paper's uncompressed model (the v1 layout; Encode writes 0.39-0.44x).
type Stats struct {
	Cells             int
	Faces             int
	FaceVertRefs      int // total vertex references across all faces
	UniqueVerts       int
	FacesPerCell      float64
	VertsPerFace      float64
	VertSharing       float64 // references per unique vertex
	GeometryBytes     int64
	ConnectivityBytes int64
	TotalBytes        int64
	BytesPerParticle  float64
}

// ComputeStats returns the data-model statistics of the block.
func (m *BlockMesh) ComputeStats() Stats {
	s := Stats{Cells: m.NumCells(), Faces: len(m.Neighbors), FaceVertRefs: len(m.LoopVerts), UniqueVerts: len(m.Verts)}
	s.FacesPerCell = ratio(s.Faces, s.Cells)
	s.VertsPerFace = ratio(s.FaceVertRefs, s.Faces)
	s.VertSharing = ratio(s.FaceVertRefs, s.UniqueVerts)
	s.GeometryBytes, s.ConnectivityBytes = m.byteSplit()
	s.TotalBytes = s.GeometryBytes + s.ConnectivityBytes
	s.BytesPerParticle = ratio(int(s.TotalBytes), s.Cells)
	return s
}

// ratio is a/b, or 0 when b is.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// byteSplit accounts the v1 layout less its magic: geometry (extents,
// vertices and sites as float64 triples, volumes, areas) versus
// connectivity (the vertex and cell counts, IDs, flags, a face count per
// cell, a neighbor and loop length per face, and the loop indices).
func (m *BlockMesh) byteSplit() (geometry, connectivity int64) {
	geometry = int64(48 + 24*len(m.Verts) + 24*len(m.Particles) + 8*len(m.Volumes) + 8*len(m.Areas))
	connectivity = int64(16 + 8*len(m.ParticleIDs) + len(m.Complete) +
		4*len(m.FaceEnds) + (8+4)*len(m.Neighbors) + 4*len(m.LoopVerts))
	return geometry, connectivity
}
