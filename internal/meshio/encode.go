package meshio

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/wire"
)

// ErrMeshTooLarge reports a mesh whose vertex or connectivity counts
// exceed what the on-disk formats can index. Both encoders return it
// (wrapped, matchable with errors.Is) instead of silently truncating
// counts to uint32 as the v1 encoder once did.
var ErrMeshTooLarge = errors.New("meshio: mesh exceeds format limits")

// formatCountMax is the largest count either format can represent: v1
// stores face and face-vertex counts as uint32, and both formats index
// the vertex pool with int32-backed indices. A package variable (not a
// const) so tests can lower it and exercise the oversized path without
// allocating 2^32 elements.
var formatCountMax uint64 = math.MaxUint32

// checkEncodable validates m's counts against the format limits shared
// by both encoders.
func checkEncodable(m *BlockMesh) error {
	if uint64(len(m.Verts)) > formatCountMax {
		return fmt.Errorf("meshio: %d vertices: %w", len(m.Verts), ErrMeshTooLarge)
	}
	if uint64(len(m.Cells)) > formatCountMax {
		return fmt.Errorf("meshio: %d cells: %w", len(m.Cells), ErrMeshTooLarge)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		if uint64(len(c.Faces)) > formatCountMax {
			return fmt.Errorf("meshio: cell %d with %d faces: %w", i, len(c.Faces), ErrMeshTooLarge)
		}
		for fi := range c.Faces {
			if uint64(len(c.Faces[fi].Verts)) > formatCountMax {
				return fmt.Errorf("meshio: cell %d face %d with %d vertices: %w",
					i, fi, len(c.Faces[fi].Verts), ErrMeshTooLarge)
			}
		}
	}
	return nil
}

// Binary block format (little-endian):
//
//	magic    uint64
//	extents  6 x float64
//	nVerts   uint64, then nVerts x 3 float64
//	nCells   uint64
//	particles nCells x 3 float64
//	ids       nCells x int64
//	volumes   nCells x float64
//	areas     nCells x float64
//	complete  nCells x byte
//	per cell: nFaces uint32, per face: neighbor int64, nVerts uint32,
//	          verts nVerts x uint32

const meshMagic uint64 = 0x744d455348763101 // "tMESHv1" + 0x01

// putVec and getVec move a position as three float64s.
func putVec(w *wire.Writer, v geom.Vec3) { w.F64(v.X); w.F64(v.Y); w.F64(v.Z) }
func getVec(r *wire.Reader) geom.Vec3 {
	return geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
}

// checkArrays rejects a block whose per-cell arrays disagree in length.
func checkArrays(m *BlockMesh) error {
	n := m.NumCells()
	if len(m.ParticleIDs) != n || len(m.Volumes) != n || len(m.Areas) != n ||
		len(m.Complete) != n || len(m.Cells) != n {
		return fmt.Errorf("meshio: inconsistent block arrays (cells=%d ids=%d vol=%d area=%d compl=%d conn=%d)",
			n, len(m.ParticleIDs), len(m.Volumes), len(m.Areas), len(m.Complete), len(m.Cells))
	}
	return nil
}

// Encode serializes the block mesh in the v1 format.
func (m *BlockMesh) Encode() ([]byte, error) {
	if err := checkEncodable(m); err != nil {
		return nil, err
	}
	if err := checkArrays(m); err != nil {
		return nil, err
	}
	n := m.NumCells()
	geometry, connectivity := m.byteSplit() // the encoded size, less the magic
	w := wire.NewWriter(8 + int(geometry+connectivity))
	w.U64(meshMagic)
	putVec(w, m.Extents.Min)
	putVec(w, m.Extents.Max)
	w.U64(uint64(len(m.Verts)))
	for _, v := range m.Verts {
		putVec(w, v)
	}
	w.U64(uint64(n))
	for _, p := range m.Particles {
		putVec(w, p)
	}
	for _, id := range m.ParticleIDs {
		w.I64(id)
	}
	for _, v := range m.Volumes {
		w.F64(v)
	}
	for _, a := range m.Areas {
		w.F64(a)
	}
	for _, c := range m.Complete {
		w.Bool(c)
	}
	for _, c := range m.Cells {
		w.U32(uint32(len(c.Faces)))
		for _, f := range c.Faces {
			w.I64(f.Neighbor)
			w.U32(uint32(len(f.Verts)))
			for _, vi := range f.Verts {
				w.U32(uint32(vi))
			}
		}
	}
	return w.Bytes(), nil
}

// DecodeBlockMesh parses a block produced by either encoder: the first
// eight bytes select the v1 path (kept so old artifacts stay readable)
// or the versioned v2 container.
func DecodeBlockMesh(data []byte) (*BlockMesh, error) {
	r := wire.NewReader(data)
	var m *BlockMesh
	switch magic := r.U64(); magic {
	case meshMagicFmt:
		m = decodeV2(r)
	case meshMagic:
		m = decodeV1(r)
	default:
		r.Fail("bad magic %#x", magic)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("meshio: %w", err)
	}
	return m, nil
}

// decodeV1 parses a v1 block after its magic. Minimum encoded sizes per
// element (vertex 24, cell 49, face 12, face vertex 4 bytes) bound every
// count before its slice is made.
func decodeV1(r *wire.Reader) *BlockMesh {
	m := &BlockMesh{}
	m.Extents.Min = getVec(r)
	m.Extents.Max = getVec(r)
	nv := r.Count("vertex", r.U64(), 24)
	m.Verts = make([]geom.Vec3, nv)
	for i := range m.Verts {
		m.Verts[i] = getVec(r)
	}
	nc := r.Count("cell", r.U64(), 49)
	m.Particles = make([]geom.Vec3, nc)
	for i := range m.Particles {
		m.Particles[i] = getVec(r)
	}
	m.ParticleIDs = make([]int64, nc)
	for i := range m.ParticleIDs {
		m.ParticleIDs[i] = r.I64()
	}
	m.Volumes = make([]float64, nc)
	for i := range m.Volumes {
		m.Volumes[i] = r.F64()
	}
	m.Areas = make([]float64, nc)
	for i := range m.Areas {
		m.Areas[i] = r.F64()
	}
	m.Complete = make([]bool, nc)
	for i := range m.Complete {
		m.Complete[i] = r.Bool()
	}
	m.Cells = make([]CellConn, nc)
	for i := range m.Cells {
		faces := make([]FaceConn, r.Count("face", uint64(r.U32()), 12))
		for fi := range faces {
			faces[fi].Neighbor = r.I64()
			nfv := r.U32()
			if int64(nfv) > int64(nv) {
				r.Fail("face with %d vertices exceeds pool %d", nfv, nv)
			}
			vs := make([]int32, r.Count("face vertex", uint64(nfv), 4))
			for vi := range vs {
				x := r.U32()
				if int64(x) >= int64(nv) {
					r.Fail("vertex index %d out of range", x)
				}
				vs[vi] = int32(x)
			}
			faces[fi].Verts = vs
		}
		m.Cells[i].Faces = faces
	}
	return m
}
