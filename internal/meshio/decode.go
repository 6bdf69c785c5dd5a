package meshio

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/wire"
)

// DecodeBlockMesh parses one block in the v2 container Encode writes;
// any other first eight bytes are a bad magic.
func DecodeBlockMesh(data []byte) (*BlockMesh, error) {
	r := wire.NewReader(data)
	var m *BlockMesh
	if magic := r.U64(); magic == meshMagicFmt {
		m = decodeV2(r)
	} else {
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
	m.readRows(r, nc, nv)
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
func (m *BlockMesh) readRows(r *wire.Reader, nc, nv int) {
	sc := *r
	faces, refs := walkRows(&sc, nc, nv, nil)
	m.FaceEnds = make([]int, 0, nc)
	m.Neighbors = make([]int64, 0, faces)
	m.LoopEnds = make([]int, 0, faces)
	m.LoopVerts = make([]int32, 0, refs)
	walkRows(r, nc, nv, m)
}

// walkRows reads nc cells' rows over a pool of nv vertices, appending
// them to m unless m is nil, and returns how many faces and loop entries
// it read. A face is one wire delta run: its neighbor, then its loop.
func walkRows(r *wire.Reader, nc, nv int, m *BlockMesh) (faces, refs int) {
	scratch := make([]int32, 0, 64) // a loop, when counting
	for range nc {
		nf := r.Count("face", r.Uvarint(), 2)
		for faces += nf; nf > 0; nf-- {
			if m == nil {
				_, scratch = r.DeltaRun(scratch[:0], nv)
				refs += len(scratch)
				continue
			}
			var neighbor int64
			neighbor, m.LoopVerts = r.DeltaRun(m.LoopVerts, nv)
			m.endFace(neighbor)
		}
		if m != nil {
			m.FaceEnds = append(m.FaceEnds, len(m.Neighbors))
		}
	}
	return faces, refs
}
