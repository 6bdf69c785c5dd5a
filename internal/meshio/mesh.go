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

// grow doubles the slot array and rehashes the current Build's entries.
func (t *weldTable) grow() {
	old := t.slots
	t.slots = make([]weldSlot, max(1024, 2*len(old)))
	for _, s := range old {
		if s.stamp == t.stamp {
			*t.slot(s.key) = s
		}
	}
}

// MeshBuilder assembles BlockMeshes with retained state: the weld table,
// the mesh's per-cell arrays, and the face/index arenas are reused across
// Build calls, so rebuilding a mesh of stable size allocates almost
// nothing. The built mesh is a loan — it is valid only until the builder's
// next Build. The zero MeshBuilder is ready to use; a builder is not safe
// for concurrent use.
type MeshBuilder struct {
	m    BlockMesh
	pool weldTable

	// faceArena holds every cell's Faces contiguously, vertArena every
	// face's Verts; CellConn and FaceConn slices are carved as three-index
	// subslices, so a growth reallocation strands the old array without
	// corrupting views already handed out.
	faceArena []FaceConn
	vertArena []int32

	// welded maps the current cell's local vertex index to its index in
	// m.Verts (-1 until first referenced), so a vertex is quantized and
	// looked up once per cell rather than once per face it sits on.
	welded []int32
}

// Build assembles the data model from computed cells into the builder's
// retained storage, welding vertices shared between adjacent cells. weldTol
// is the absolute coordinate quantum used for welding; pass 0 for a default
// of 1e-7 of the extents' largest side. The previous Build's mesh is
// invalidated.
func (b *MeshBuilder) Build(cells []*voronoi.Cell, extents geom.Box, weldTol float64) *BlockMesh {
	if weldTol <= 0 {
		weldTol = 1e-7 * maxf(extents.Size().MaxAbs(), 1e-30)
	}
	// One counting pass sizes the arenas and per-cell arrays exactly, and
	// the welded pool and its table by estimate. A vertex is shared by four
	// cells, fewer where some of them lie outside the block: about three on
	// the blocks measured, which sizes the pool. The table is reserved at
	// four, the floor: its size doubles, and one doubling too many costs
	// every probe of every Build a cache miss, where one too few costs a
	// single rehash.
	var nFaces, nRefs, nVerts int
	for _, c := range cells {
		nFaces += len(c.Faces)
		nVerts += len(c.Verts)
		for _, f := range c.Faces {
			nRefs += len(f.Loop)
		}
	}
	m := &b.m
	m.Extents = extents
	m.Verts = withCap(m.Verts, nVerts/3)
	m.Particles = withCap(m.Particles, len(cells))
	m.ParticleIDs = withCap(m.ParticleIDs, len(cells))
	m.Volumes = withCap(m.Volumes, len(cells))
	m.Areas = withCap(m.Areas, len(cells))
	m.Complete = withCap(m.Complete, len(cells))
	m.Cells = withCap(m.Cells, len(cells))
	b.faceArena = withCap(b.faceArena, nFaces)
	b.vertArena = withCap(b.vertArena, nRefs)
	b.pool.reset()
	b.pool.reserve(nVerts / 4)
	for _, c := range cells {
		b.welded = b.welded[:0]
		for range c.Verts {
			b.welded = append(b.welded, -1)
		}
		fbase := len(b.faceArena)
		for _, f := range c.Faces {
			vbase := len(b.vertArena)
			for _, vi := range f.Loop {
				// Resolved on first reference, in loop order, so m.Verts
				// is ordered as if every reference probed the pool.
				gi := b.welded[vi]
				if gi < 0 {
					v := c.Verts[vi]
					var added bool
					if gi, added = b.pool.lookupOrAdd(quantize(v, weldTol), int32(len(m.Verts))); added {
						m.Verts = append(m.Verts, v)
					}
					b.welded[vi] = gi
				}
				b.vertArena = append(b.vertArena, gi)
			}
			b.faceArena = append(b.faceArena, FaceConn{
				Neighbor: f.Neighbor,
				Verts:    b.vertArena[vbase:len(b.vertArena):len(b.vertArena)],
			})
		}
		m.Cells = append(m.Cells, CellConn{Faces: b.faceArena[fbase:len(b.faceArena):len(b.faceArena)]})
		m.Particles = append(m.Particles, c.Site)
		m.ParticleIDs = append(m.ParticleIDs, c.SiteID)
		m.Volumes = append(m.Volumes, c.Volume())
		m.Areas = append(m.Areas, c.Area())
		m.Complete = append(m.Complete, c.Complete)
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
