// Package meshio implements the analysis data model of the paper's
// Sec. III-C2 and its storage: each block holds a conventional unstructured
// mesh — vertices listed once, integer indices connecting vertices into
// faces and cells — plus the original particle locations, per-cell volumes
// and surface areas, and the block extents. Blocks serialize to a compact
// binary form written collectively through internal/diy into a single file,
// and can be exported as legacy-VTK polydata for visualization (the
// stand-in for the paper's ParaView plugin rendering path).
package meshio

import (
	"repro/internal/geom"
	"repro/internal/voronoi"
)

// FaceConn is one polygonal face of a cell in index form.
type FaceConn struct {
	// Neighbor is the particle ID across the face (negative for walls of
	// the computation box; see voronoi.Wall*).
	Neighbor int64
	// Verts are indices into BlockMesh.Verts, ordered counterclockwise
	// viewed from outside the cell.
	Verts []int32
}

// CellConn is the connectivity of one Voronoi cell.
type CellConn struct {
	Faces []FaceConn
}

// BlockMesh is the per-block analysis data model.
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
	// Cells is per-cell face connectivity, aligned with Particles.
	Cells []CellConn
}

// NumCells returns the number of cells in the block.
func (m *BlockMesh) NumCells() int { return len(m.Particles) }

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

// Arena elements a Fragment reserves per expected cell: the Poisson–Voronoi
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
// finished, so a cell's own geometry can be dropped at once. Its vertices
// are numbered locally, in order of first reference; MeshBuilder.Stitch
// gives them their block-wide numbers. Its storage is retained across
// passes.
type Fragment struct {
	tol float64

	// verts are the local vertices, each at its first reference's
	// coordinates. faces hold every cell's faces contiguously and loops
	// every face's local vertex ids, carved as three-index subslices (a
	// growth reallocation strands the old array without corrupting the
	// faces that point into it).
	verts []geom.Vec3
	faces []FaceConn
	loops []int32

	// Per-cell records, in the order the cells were added.
	cells    []CellConn
	sites    []geom.Vec3
	ids      []int64
	volumes  []float64
	areas    []float64
	complete []bool
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
}

// Begin empties f, keeping its storage, for up to cells cells of a block
// with the given extents, and makes it the fragment Add fills. weldTol is
// as for MeshBuilder.Build; every fragment of one Stitch must be begun
// with the same extents and weldTol.
func (w *Welder) Begin(f *Fragment, extents geom.Box, weldTol float64, cells int) {
	if weldTol <= 0 {
		weldTol = 1e-7 * maxf(extents.Size().MaxAbs(), 1e-30)
	}
	w.f = f
	w.tab.reset()
	w.tab.reserve(cells * reserveRefsPerCell / 12) // the floor, as in Stitch
	f.tol = weldTol
	f.verts = withCap(f.verts, cells*reserveVertsPerCell)
	f.faces = withCap(f.faces, cells*reserveFacesPerCell)
	f.loops = withCap(f.loops, cells*reserveRefsPerCell)
	f.cells = withCap(f.cells, cells)
	f.sites = withCap(f.sites, cells)
	f.ids = withCap(f.ids, cells)
	f.volumes = withCap(f.volumes, cells)
	f.areas = withCap(f.areas, cells)
	f.complete = withCap(f.complete, cells)
}

// Add welds c into the current fragment with the given volume and area; c
// can be dropped or overwritten as soon as Add returns.
func (w *Welder) Add(c *voronoi.Cell, volume, area float64) {
	f := w.f
	w.welded = w.welded[:0]
	for range c.Verts {
		w.welded = append(w.welded, -1)
	}
	fbase := len(f.faces)
	for _, face := range c.Faces {
		vbase := len(f.loops)
		for _, vi := range face.Loop {
			// Resolved on first reference, in loop order, so the local
			// vertices are ordered as if every reference probed the table.
			li := w.welded[vi]
			if li < 0 {
				v := c.Verts[vi]
				var added bool
				if li, added = w.tab.lookupOrAdd(quantize(v, f.tol), int32(len(f.verts))); added {
					f.verts = append(f.verts, v)
				}
				w.welded[vi] = li
			}
			f.loops = append(f.loops, li)
		}
		f.faces = append(f.faces, FaceConn{
			Neighbor: face.Neighbor,
			Verts:    f.loops[vbase:len(f.loops):len(f.loops)],
		})
	}
	f.cells = append(f.cells, CellConn{Faces: f.faces[fbase:len(f.faces):len(f.faces)]})
	f.sites = append(f.sites, c.Site)
	f.ids = append(f.ids, c.SiteID)
	f.volumes = append(f.volumes, volume)
	f.areas = append(f.areas, area)
	f.complete = append(f.complete, c.Complete)
}

// MeshBuilder assembles BlockMeshes with retained state: the mesh's vertex
// pool and per-cell arrays, the block weld table, and the fragment Build
// welds into, are reused across calls, so rebuilding a mesh of stable size
// allocates almost nothing. The built mesh is a loan — it is valid only
// until the builder's next Build or Stitch, or the stitched fragments'
// next Begin. The zero MeshBuilder is ready to use; a builder is not safe
// for concurrent use.
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
// of the block's cells given in cell order, into the builder's retained
// storage. Each fragment's local vertices, in local order, get their index
// in m.Verts by their weld key, a new key taking the next index and its
// coordinates; the fragment's loops are rewritten to those indices in
// place, and the mesh's faces are the fragments' own. The result is
// byte-identical to one Build over all the cells in order, however they
// were split: Build numbers a key at its first reference, that is its
// first reference in the earliest fragment that holds it, and keys new in
// one fragment keep their local order. Stitch consumes the fragments; they
// must be begun afresh before the next.
func (b *MeshBuilder) Stitch(frags []Fragment, extents geom.Box) *BlockMesh {
	// The vertex pool is sized at Σ local vertices, an upper bound exact
	// for one fragment. The block table is reserved by estimate: a cell's
	// vertex sits on three of its faces and is shared by four cells, so a
	// block has about one vertex per twelve references — the floor, since
	// a table one doubling too large costs every probe of every later
	// Stitch a cache miss, where one too small costs a single rehash.
	var nVerts, nRefs, nCells int
	for i := range frags {
		nVerts += len(frags[i].verts)
		nRefs += len(frags[i].loops)
		nCells += len(frags[i].cells)
	}
	m := &b.m
	m.Extents = extents
	m.Verts = withCap(m.Verts, nVerts)
	m.Particles = withCap(m.Particles, nCells)
	m.ParticleIDs = withCap(m.ParticleIDs, nCells)
	m.Volumes = withCap(m.Volumes, nCells)
	m.Areas = withCap(m.Areas, nCells)
	m.Complete = withCap(m.Complete, nCells)
	m.Cells = withCap(m.Cells, nCells)
	if len(frags) == 1 {
		// One fragment's local ids are its block ids.
		m.Verts = append(m.Verts, frags[0].verts...)
	} else {
		b.tab.reset()
		b.tab.reserve(nRefs / 12)
	}
	for i := range frags {
		f := &frags[i]
		if len(frags) > 1 {
			b.remap = b.remap[:0]
			for _, v := range f.verts {
				gi, added := b.tab.lookupOrAdd(quantize(v, f.tol), int32(len(m.Verts)))
				if added {
					m.Verts = append(m.Verts, v)
				}
				b.remap = append(b.remap, gi)
			}
			// The first fragment's keys are all new, so its ids stand.
			// The others are rewritten through the faces, not f.loops: a
			// face carved before a growth of the arena points into the
			// stranded array.
			if i > 0 {
				for _, face := range f.faces {
					for j, li := range face.Verts {
						face.Verts[j] = b.remap[li]
					}
				}
			}
		}
		m.Cells = append(m.Cells, f.cells...)
		m.Particles = append(m.Particles, f.sites...)
		m.ParticleIDs = append(m.ParticleIDs, f.ids...)
		m.Volumes = append(m.Volumes, f.volumes...)
		m.Areas = append(m.Areas, f.areas...)
		m.Complete = append(m.Complete, f.complete...)
	}
	return m
}

// Clone returns a deep copy of the mesh that owns all of its memory,
// detaching it from any builder or session loan it came from.
func (m *BlockMesh) Clone() *BlockMesh {
	out := &BlockMesh{
		Extents:     m.Extents,
		Verts:       append([]geom.Vec3(nil), m.Verts...),
		Particles:   append([]geom.Vec3(nil), m.Particles...),
		ParticleIDs: append([]int64(nil), m.ParticleIDs...),
		Volumes:     append([]float64(nil), m.Volumes...),
		Areas:       append([]float64(nil), m.Areas...),
		Complete:    append([]bool(nil), m.Complete...),
		Cells:       make([]CellConn, len(m.Cells)),
	}
	for ci, c := range m.Cells {
		faces := make([]FaceConn, len(c.Faces))
		for fi, f := range c.Faces {
			faces[fi] = FaceConn{Neighbor: f.Neighbor, Verts: append([]int32(nil), f.Verts...)}
		}
		out.Cells[ci] = CellConn{Faces: faces}
	}
	return out
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

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Stats summarizes the data-model shape numbers the paper reports
// (Sec. III-C2): faces per cell, vertices per face, vertex sharing, and the
// byte split between floating-point geometry and integer connectivity.
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
	var s Stats
	s.Cells = m.NumCells()
	for _, c := range m.Cells {
		s.Faces += len(c.Faces)
		for _, f := range c.Faces {
			s.FaceVertRefs += len(f.Verts)
		}
	}
	s.UniqueVerts = len(m.Verts)
	if s.Cells > 0 {
		s.FacesPerCell = float64(s.Faces) / float64(s.Cells)
	}
	if s.Faces > 0 {
		s.VertsPerFace = float64(s.FaceVertRefs) / float64(s.Faces)
	}
	if s.UniqueVerts > 0 {
		s.VertSharing = float64(s.FaceVertRefs) / float64(s.UniqueVerts)
	}
	s.GeometryBytes, s.ConnectivityBytes = m.byteSplit()
	s.TotalBytes = s.GeometryBytes + s.ConnectivityBytes
	if s.Cells > 0 {
		s.BytesPerParticle = float64(s.TotalBytes) / float64(s.Cells)
	}
	return s
}

// byteSplit accounts the encoded size: geometry (floating-point vertices,
// particles, volumes, areas, extents) versus connectivity (IDs, counts,
// face vertex indices, flags).
func (m *BlockMesh) byteSplit() (geometry, connectivity int64) {
	geometry = int64(48) // extents: 6 float64
	geometry += int64(24 * len(m.Verts))
	geometry += int64(24 * len(m.Particles))
	geometry += int64(8 * len(m.Volumes))
	geometry += int64(8 * len(m.Areas))

	connectivity = int64(8 * 2) // counts header (nVerts, nCells)
	connectivity += int64(8 * len(m.ParticleIDs))
	connectivity += int64(1 * len(m.Complete))
	for _, c := range m.Cells {
		connectivity += 4 // face count
		for _, f := range c.Faces {
			connectivity += 8 + 4                   // neighbor + vert count
			connectivity += int64(4 * len(f.Verts)) // indices
		}
	}
	return geometry, connectivity
}
