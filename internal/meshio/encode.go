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

// checkEncodable holds m to checkArrays, then validates its counts
// against the format limits shared by both encoders. A cell's faces and a
// face's loop are bounded by the totals, so they are walked only when a
// total is past the limit.
func checkEncodable(m *BlockMesh) error {
	if err := checkArrays(m); err != nil {
		return err
	}
	if uint64(len(m.Verts)) > formatCountMax {
		return fmt.Errorf("meshio: %d vertices: %w", len(m.Verts), ErrMeshTooLarge)
	}
	if uint64(m.NumCells()) > formatCountMax {
		return fmt.Errorf("meshio: %d cells: %w", m.NumCells(), ErrMeshTooLarge)
	}
	if uint64(len(m.Neighbors)) <= formatCountMax && uint64(len(m.LoopVerts)) <= formatCountMax {
		return nil
	}
	for c := range m.FaceEnds {
		lo, hi := m.Faces(c)
		if uint64(hi-lo) > formatCountMax {
			return fmt.Errorf("meshio: cell %d with %d faces: %w", c, hi-lo, ErrMeshTooLarge)
		}
		for f := lo; f < hi; f++ {
			if n := len(m.Loop(f)); uint64(n) > formatCountMax {
				return fmt.Errorf("meshio: cell %d face %d with %d vertices: %w", c, f-lo, n, ErrMeshTooLarge)
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

// checkArrays rejects a block whose per-cell arrays disagree in length,
// or whose rows do not partition the next array: ends that decrease, or a
// last end that is not the next array's length.
func checkArrays(m *BlockMesh) error {
	n := m.NumCells()
	if len(m.ParticleIDs) != n || len(m.Volumes) != n || len(m.Areas) != n ||
		len(m.Complete) != n || len(m.FaceEnds) != n || len(m.LoopEnds) != len(m.Neighbors) {
		return fmt.Errorf("meshio: inconsistent block arrays (cells=%d ids=%d vol=%d area=%d compl=%d conn=%d faces=%d loops=%d)",
			n, len(m.ParticleIDs), len(m.Volumes), len(m.Areas), len(m.Complete), len(m.FaceEnds), len(m.Neighbors), len(m.LoopEnds))
	}
	if err := checkRow("face", m.FaceEnds, len(m.Neighbors)); err != nil {
		return err
	}
	return checkRow("loop", m.LoopEnds, len(m.LoopVerts))
}

// checkRow rejects end offsets that decrease or do not end at total.
func checkRow(what string, ends []int, total int) error {
	prev := 0
	for i, e := range ends {
		if e < prev {
			return fmt.Errorf("meshio: inconsistent block arrays (%s row %d ends at %d, before %d)", what, i, e, prev)
		}
		prev = e
	}
	if prev != total {
		return fmt.Errorf("meshio: inconsistent block arrays (%s rows end at %d of %d)", what, prev, total)
	}
	return nil
}

// Encode serializes the block mesh in the v1 format.
func (m *BlockMesh) Encode() ([]byte, error) {
	if err := checkEncodable(m); err != nil {
		return nil, err
	}
	n := m.NumCells()
	geometry, connectivity := m.byteSplit() // the encoded size, less the magic
	w := wire.NewWriter(8 + int(geometry+connectivity))
	w.U64(meshMagic)
	putVec(w, m.Extents.Min)
	putVec(w, m.Extents.Max)
	w.U64(uint64(len(m.Verts)))
	writeAll(w, m.Verts, putVec)
	w.U64(uint64(n))
	writeAll(w, m.Particles, putVec)
	writeAll(w, m.ParticleIDs, (*wire.Writer).I64)
	writeAll(w, m.Volumes, (*wire.Writer).F64)
	writeAll(w, m.Areas, (*wire.Writer).F64)
	writeAll(w, m.Complete, (*wire.Writer).Bool)
	m.writeRows(w, rowsV1)
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
	m.Verts = readAll(r, nv, getVec)
	nc := r.Count("cell", r.U64(), 49)
	m.Particles = readAll(r, nc, getVec)
	m.ParticleIDs = readAll(r, nc, (*wire.Reader).I64)
	m.Volumes = readAll(r, nc, (*wire.Reader).F64)
	m.Areas = readAll(r, nc, (*wire.Reader).F64)
	m.Complete = readAll(r, nc, (*wire.Reader).Bool)
	m.readRows(r, rowsV1, nc, nv)
	return m
}

// rowCodec is one encoding of the connectivity rows: how a face or loop
// length, a neighbor and a loop's vertex index (given the loop's previous
// one) are written and read, and the fewest bytes a face and an index take.
type rowCodec struct {
	faceMin, indexMin int
	putCount          func(w *wire.Writer, n uint64)
	putNeighbor       func(w *wire.Writer, id int64)
	putIndex          func(w *wire.Writer, vi, prev int64)
	count             func(r *wire.Reader) uint64
	neighbor          func(r *wire.Reader) int64
	index             func(r *wire.Reader, prev int64) int64
}

var rowsV1 = rowCodec{
	faceMin: 12, indexMin: 4,
	putCount:    func(w *wire.Writer, n uint64) { w.U32(uint32(n)) },
	putNeighbor: (*wire.Writer).I64,
	putIndex:    func(w *wire.Writer, vi, _ int64) { w.U32(uint32(vi)) },
	count:       func(r *wire.Reader) uint64 { return uint64(r.U32()) },
	neighbor:    (*wire.Reader).I64,
	index:       func(r *wire.Reader, _ int64) int64 { return int64(r.U32()) },
}

// writeRows writes m's connectivity: per cell its face count, per face
// its neighbor, loop length and loop.
func (m *BlockMesh) writeRows(w *wire.Writer, f rowCodec) {
	for c := range m.FaceEnds {
		lo, hi := m.Faces(c)
		f.putCount(w, uint64(hi-lo))
		for fi := lo; fi < hi; fi++ {
			loop := m.Loop(fi)
			f.putNeighbor(w, m.Neighbors[fi])
			f.putCount(w, uint64(len(loop)))
			var prev int64
			for _, vi := range loop {
				f.putIndex(w, int64(vi), prev)
				prev = int64(vi)
			}
		}
	}
}

// readRows reads nc cells' connectivity rows into m, each row allocated
// once at its exact size: a first pass over a copy of r counts them.
func (m *BlockMesh) readRows(r *wire.Reader, f rowCodec, nc, nv int) {
	sc := *r
	faces, refs := f.walk(&sc, nc, nv, nil)
	m.FaceEnds = make([]int, 0, nc)
	m.Neighbors = make([]int64, 0, faces)
	m.LoopEnds = make([]int, 0, faces)
	m.LoopVerts = make([]int32, 0, refs)
	f.walk(r, nc, nv, m)
}

// walk reads nc cells' rows over a pool of nv vertices, appending them to
// m unless m is nil, and returns how many faces and loop entries it read.
func (f rowCodec) walk(r *wire.Reader, nc, nv int, m *BlockMesh) (faces, refs int) {
	for range nc {
		for range r.Count("face", f.count(r), f.faceMin) {
			neighbor := f.neighbor(r)
			n := f.count(r)
			if n > uint64(nv) {
				r.Fail("face with %d vertices exceeds pool %d", n, nv)
			}
			var vi int64
			for range r.Count("face vertex", n, f.indexMin) {
				if vi = f.index(r, vi); vi < 0 || vi >= int64(nv) {
					r.Fail("vertex index %d out of range", vi)
				}
				if refs++; m != nil {
					m.LoopVerts = append(m.LoopVerts, int32(vi))
				}
			}
			if faces++; m != nil {
				m.endFace(neighbor)
			}
		}
		if m != nil {
			m.FaceEnds = append(m.FaceEnds, len(m.Neighbors))
		}
	}
	return faces, refs
}

// writeAll writes every element of s with put.
func writeAll[T any](w *wire.Writer, s []T, put func(*wire.Writer, T)) {
	for _, v := range s {
		put(w, v)
	}
}

// readAll reads n elements with read.
func readAll[T any](r *wire.Reader, n int, read func(*wire.Reader) T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = read(r)
	}
	return s
}
