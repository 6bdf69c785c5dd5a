package meshio

import (
	"math"

	"repro/internal/geom"
	"repro/internal/wire"
)

// Mesh interchange format v2: the compact on-disk encoding behind
// out-of-core artifacts (per-step block files, checkpoints). Unlike v1,
// the magic identifies only the container family and an explicit
// version field selects the layout, so future revisions do not need a
// new magic. A v2 payload holds exactly one block: files of many blocks
// are diy block files with one v2 payload per section.
//
// Container layout (little-endian):
//
//	magic    uint64 ("tMESHfmt")
//	version  uint32 (currently 2)
//	frame:   marker 0x01, bodyLen uvarint, body
//	end:     marker 0x00
//
// Block body:
//
//	extents   6 x float64
//	nVerts    uvarint; if nVerts > 0:
//	  origin  3 x float64   (per-axis quantization origin = min coord)
//	  exp     3 x int32     (per-axis power-of-two step exponent)
//	  qverts  nVerts x 3 x uint32
//	nCells    uvarint
//	sites     nCells x 3 x float64   (exact — the canonical-weld input)
//	ids       zigzag-varint deltas (first absolute)
//	volumes   nCells x float64
//	areas     nCells x float64
//	complete  ceil(nCells/8) bytes, bit i = cell i complete
//	cells:    per cell: nFaces uvarint; per face: neighbor zigzag
//	          varint, nVerts uvarint, vertex indices as zigzag-varint
//	          deltas (first absolute)
//
// Positions are quantized to a 32-bit grid whose step is a power of
// two (step = 2^exp, exp = ilogb(span)-31): power-of-two steps make
// dequantize→requantize reproduce the same grid indices, so
// encode→decode→encode is byte-stable. Quantization perturbs only the
// *stored* vertex coordinates; cell sites stay exact float64, and
// MergeCanonical re-derives every merged vertex from site bisector
// planes — never from stored coordinates — which is why a v2 round
// trip yields canonical merged bytes identical to the v1 path.

const meshMagicFmt uint64 = 0x744d455348666d74 // "tMESHfmt"

// meshFormatV2 is the version field value for the layout above.
const meshFormatV2 uint32 = 2

// quantGrid is one axis's quantization frame.
type quantGrid struct {
	origin float64
	exp    int32
}

func (g quantGrid) step() float64 { return math.Ldexp(1, int(g.exp)) }

// gridFor derives the quantization frame of one coordinate axis: the
// origin is the exact minimum (so the minimal vertex round-trips
// bit-for-bit) and the step is the power of two putting the span just
// inside 32 bits.
func gridFor(lo, hi float64) quantGrid {
	span := hi - lo
	if !(span > 0) || math.IsInf(span, 0) {
		return quantGrid{origin: lo, exp: 0}
	}
	return quantGrid{origin: lo, exp: int32(math.Ilogb(span)) - 31}
}

func (g quantGrid) quantize(x float64) uint32 {
	q := math.Round((x - g.origin) / g.step())
	if q < 0 {
		return 0
	}
	if q > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(q)
}

func (g quantGrid) dequantize(q uint32) float64 {
	return g.origin + float64(q)*g.step()
}

// encodeV2Body serializes m as one v2 block body (no container framing).
func encodeV2Body(m *BlockMesh) ([]byte, error) {
	if err := checkEncodable(m); err != nil {
		return nil, err
	}
	n := m.NumCells()
	w := wire.NewWriter(64 + 12*len(m.Verts) + 64*n)
	putVec(w, m.Extents.Min)
	putVec(w, m.Extents.Max)
	w.Uvarint(uint64(len(m.Verts)))
	if len(m.Verts) > 0 {
		var grids [3]quantGrid
		for a := 0; a < 3; a++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range m.Verts {
				c := v.Component(a)
				lo = math.Min(lo, c)
				hi = math.Max(hi, c)
			}
			grids[a] = gridFor(lo, hi)
		}
		for a := 0; a < 3; a++ {
			w.F64(grids[a].origin)
		}
		for a := 0; a < 3; a++ {
			w.I32(grids[a].exp)
		}
		for _, v := range m.Verts {
			w.U32(grids[0].quantize(v.X))
			w.U32(grids[1].quantize(v.Y))
			w.U32(grids[2].quantize(v.Z))
		}
	}
	w.Uvarint(uint64(n))
	writeAll(w, m.Particles, putVec)
	var prevID int64
	for _, id := range m.ParticleIDs {
		w.Svarint(id - prevID)
		prevID = id
	}
	writeAll(w, m.Volumes, (*wire.Writer).F64)
	writeAll(w, m.Areas, (*wire.Writer).F64)
	bits := make([]byte, (n+7)/8)
	for i, c := range m.Complete {
		if c {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	w.Raw(bits)
	m.writeRows(w, rowsV2)
	return w.Bytes(), nil
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
		var grids [3]quantGrid
		for a := 0; a < 3; a++ {
			grids[a].origin = r.F64()
		}
		for a := 0; a < 3; a++ {
			grids[a].exp = r.I32()
		}
		for a := 0; a < 3; a++ {
			if e := grids[a].exp; e < -1100 || e > 1024 || math.IsNaN(grids[a].origin) {
				r.Fail("malformed quantization grid (origin %g, exp %d)", grids[a].origin, e)
			}
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
	m.readRows(r, rowsV2, nc, nv)
	return m
}

var rowsV2 = rowCodec{
	faceMin: 2, indexMin: 1,
	putCount:    (*wire.Writer).Uvarint,
	putNeighbor: (*wire.Writer).Svarint,
	putIndex:    func(w *wire.Writer, vi, prev int64) { w.Svarint(vi - prev) },
	count:       (*wire.Reader).Uvarint,
	neighbor:    (*wire.Reader).Svarint,
	index:       func(r *wire.Reader, prev int64) int64 { return prev + r.Svarint() },
}

// EncodeV2 serializes m as a complete v2 container — the compact
// counterpart of Encode, readable by DecodeBlockMesh.
func EncodeV2(m *BlockMesh) ([]byte, error) {
	body, err := encodeV2Body(m)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(len(body) + 24)
	w.U64(meshMagicFmt)
	w.U32(meshFormatV2)
	w.U8(1)
	w.Uvarint(uint64(len(body)))
	w.Raw(body)
	w.U8(0)
	return w.Bytes(), nil
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
