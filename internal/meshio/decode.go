package meshio

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/wire"
)

// meshMagic opens a block in the v1 layout: the same fields as v2, every
// coordinate and scalar a full float64 and the connectivity fixed-width
// integers (per cell a uint32 face count; per face an int64 neighbor, a
// uint32 loop length and uint32 vertex indices). Only DecodeBlockMesh
// uses it, so files written before v2 stay readable.
const meshMagic uint64 = 0x744d455348763101 // "tMESHv1" + 0x01

// DecodeBlockMesh parses one block: the first eight bytes select the v2
// container Encode writes, or the v1 layout of older files.
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

// decodeV2 parses a v2 container after its magic: the version, exactly
// one frame whose declared length is exactly its body, and the end
// marker. Anything else — a second frame, another version, a frame longer
// than the input — is an error (the strictness DecodeBlockMesh promises;
// its Done rejects bytes after the end marker).
func decodeV2(r *wire.Reader) *BlockMesh {
	if ver := r.U32(); ver != meshFormatV2 {
		r.Fail("unsupported mesh format version %d", ver)
	}
	switch marker := r.U8(); marker {
	case 1:
	case 0:
		r.Fail("empty v2 container")
	default:
		r.Fail("bad v2 frame marker %#x", marker)
	}
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail("v2 frame of %d bytes truncated at %d", n, r.Len())
	}
	after := r.Len() - int(n)
	m := decodeV2Body(r)
	if r.Len() != after {
		r.Fail("v2 frame length %d does not match its body", n)
	}
	switch marker := r.U8(); marker {
	case 0:
	case 1:
		r.Fail("v2 container holds more than one block")
	default:
		r.Fail("bad v2 end marker %#x", marker)
	}
	return m
}

// decodeV2Body parses one v2 block body. Minimum encoded sizes per
// element (vertex 12, cell 42, face 2, face vertex 1 byte) bound every
// count before its slice is made.
func decodeV2Body(r *wire.Reader) *BlockMesh {
	m := &BlockMesh{}
	m.Extents.Min = getVec(r)
	m.Extents.Max = getVec(r)
	nvRaw := r.Uvarint()
	if nvRaw > formatCountMax {
		r.Fail("implausible vertex count %d", nvRaw)
	}
	nv := r.Count("vertex", nvRaw, 12)
	if nv > 0 {
		var origin [3]float64
		for a := range origin {
			origin[a] = r.F64()
		}
		var grids [3]quantGrid
		for a := range grids {
			e := r.I32()
			if e < -1100 || e > 1024 || origin[a] != origin[a] {
				r.Fail("malformed quantization grid (origin %g, exp %d)", origin[a], e)
			}
			grids[a] = newGrid(origin[a], e)
		}
		m.Verts = readAll(r, nv, func(r *wire.Reader) geom.Vec3 {
			return geom.Vec3{X: grids[0].dequantize(r.U32()), Y: grids[1].dequantize(r.U32()), Z: grids[2].dequantize(r.U32())}
		})
	}
	ncRaw := r.Uvarint()
	if ncRaw > formatCountMax {
		r.Fail("implausible cell count %d", ncRaw)
	}
	nc := r.Count("cell", ncRaw, 42)
	m.Particles = readAll(r, nc, getVec)
	var prevID int64
	m.ParticleIDs = readAll(r, nc, func(r *wire.Reader) int64 { prevID += r.Svarint(); return prevID })
	m.Volumes = readAll(r, nc, (*wire.Reader).F64)
	m.Areas = readAll(r, nc, (*wire.Reader).F64)
	m.Complete = make([]bool, nc)
	if bits := r.Take((nc + 7) / 8); bits != nil {
		for i := range m.Complete {
			m.Complete[i] = bits[i/8]&(1<<(i%8)) != 0
		}
	}
	m.readRows(r, true, nc, nv)
	return m
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
	m.readRows(r, false, nc, nv)
	return m
}

// readAll reads n elements with read.
func readAll[T any](r *wire.Reader, n int, read func(*wire.Reader) T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = read(r)
	}
	return s
}

// readRows reads nc cells' connectivity rows into m, each row allocated
// once at its exact size: a first pass over a copy of r counts them.
func (m *BlockMesh) readRows(r *wire.Reader, v2 bool, nc, nv int) {
	sc := *r
	faces, refs := walkRows(&sc, v2, nc, nv, nil)
	m.FaceEnds = make([]int, 0, nc)
	m.Neighbors = make([]int64, 0, faces)
	m.LoopEnds = make([]int, 0, faces)
	m.LoopVerts = make([]int32, 0, refs)
	walkRows(r, v2, nc, nv, m)
}

// walkRows reads nc cells' rows over a pool of nv vertices, appending
// them to m unless m is nil, and returns how many faces and loop entries
// it read. A v2 face is one wire delta run, its neighbor and then its
// loop; a v1 face is fixed-width.
func walkRows(r *wire.Reader, v2 bool, nc, nv int, m *BlockMesh) (faces, refs int) {
	scratch := make([]int32, 0, 64) // a loop, when counting
	for range nc {
		var nf int
		if v2 {
			nf = r.Count("face", r.Uvarint(), 2)
		} else {
			nf = r.Count("face", uint64(r.U32()), 12)
		}
		for faces += nf; nf > 0; nf-- {
			var neighbor int64
			switch {
			case v2 && m == nil:
				_, scratch = r.DeltaRun(scratch[:0], nv)
				refs += len(scratch)
				continue
			case v2:
				neighbor, m.LoopVerts = r.DeltaRun(m.LoopVerts, nv)
			default:
				neighbor = r.I64()
				for range r.Count("face vertex", uint64(r.U32()), 4) {
					vi := r.U32()
					if vi >= uint32(nv) {
						r.Fail("vertex index %d out of range", vi)
					}
					if refs++; m != nil {
						m.LoopVerts = append(m.LoopVerts, int32(vi))
					}
				}
			}
			if m != nil {
				m.endFace(neighbor)
			}
		}
		if m != nil {
			m.FaceEnds = append(m.FaceEnds, len(m.Neighbors))
		}
	}
	return faces, refs
}
