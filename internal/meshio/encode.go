package meshio

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/wire"
)

// Mesh interchange format v2, the one layout this package writes: per-step
// block files, daemon mesh events and canonical merges. The magic
// identifies only the container family and an explicit version field
// selects the layout, so future revisions do not need a new magic. A v2
// payload holds exactly one block: files of many blocks are diy block
// files with one v2 payload per section. DecodeBlockMesh also reads the
// older fixed-width v1 layout, which nothing writes any more.
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
// Vertices are quantized to a 32-bit grid of power-of-two step (2^exp,
// exp = ilogb(span)-31), so encode→decode→encode is byte-stable; all else
// is exact, and MergeCanonical re-derives merged vertices from the sites,
// so a decoded block merges to the canonical mesh of the encoded one.

const meshMagicFmt uint64 = 0x744d455348666d74 // "tMESHfmt"

// meshFormatV2 is the version field value for the layout above.
const meshFormatV2 uint32 = 2

// ErrMeshTooLarge reports a mesh whose vertex or connectivity counts
// exceed what the format can index. Encode returns it (wrapped, matchable
// with errors.Is) instead of silently truncating counts.
var ErrMeshTooLarge = errors.New("meshio: mesh exceeds format limits")

// ErrNonFinite reports a vertex the quantization grid cannot place: a
// coordinate that is NaN or infinite, or vertices so far apart on one
// axis that their span overflows a float64. Encode returns it wrapped.
var ErrNonFinite = errors.New("meshio: vertex coordinates not finite")

// formatCountMax is the largest vertex or cell count the decoders accept.
// A package variable (not a const) so tests can lower it and exercise the
// oversized path without allocating 2^32 elements.
var formatCountMax uint64 = math.MaxUint32

// checkEncodable holds m to checkArrays and the vertex and cell limits,
// and derives each axis's grid from its vertex bounds (NaN if a coordinate
// is: the builtin min and max propagate it). The origin is the exact
// minimum, +0 for -0, which no vertex decodes to; the step is the power of
// two putting the span just inside 32 bits, never below the smallest
// subnormal; a span that is not finite is ErrNonFinite.
func checkEncodable(m *BlockMesh) (grids [3]quantGrid, err error) {
	if err := checkArrays(m); err != nil {
		return grids, err
	}
	if uint64(len(m.Verts)) > formatCountMax {
		return grids, fmt.Errorf("meshio: %d vertices: %w", len(m.Verts), ErrMeshTooLarge)
	}
	if uint64(m.NumCells()) > formatCountMax {
		return grids, fmt.Errorf("meshio: %d cells: %w", m.NumCells(), ErrMeshTooLarge)
	}
	if len(m.Verts) == 0 {
		return grids, nil
	}
	lo, hi := m.Verts[0], m.Verts[0]
	for _, v := range m.Verts[1:] {
		lo = geom.Vec3{X: min(lo.X, v.X), Y: min(lo.Y, v.Y), Z: min(lo.Z, v.Z)}
		hi = geom.Vec3{X: max(hi.X, v.X), Y: max(hi.Y, v.Y), Z: max(hi.Z, v.Z)}
	}
	for a := range grids {
		l, h := lo.Component(a)+0, hi.Component(a) // -0 + 0 is +0
		switch span := h - l; {
		case span-span != 0:
			return grids, fmt.Errorf("meshio: vertices span %g to %g on axis %d: %w", l, h, a, ErrNonFinite)
		case span > 0:
			grids[a] = newGrid(l, max(int32(math.Ilogb(span))-31, -1074))
		default:
			grids[a] = newGrid(l, 0)
		}
	}
	return grids, nil
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

// quantGrid is one axis's quantization frame: origin + q·2^exp.
type quantGrid struct {
	origin    float64
	exp       int32
	step, inv float64 // 2^exp, and 2^-exp where that is finite (else 0)
}

func newGrid(origin float64, exp int32) quantGrid {
	g := quantGrid{origin: origin, exp: exp, step: math.Ldexp(1, int(exp))}
	if exp > -1024 {
		g.inv = math.Ldexp(1, -int(exp))
	}
	return g
}

// quantize rounds x to the nearest grid index. Multiplying by a power
// of two's exact reciprocal rounds as dividing by it does.
func (g quantGrid) quantize(x float64) uint32 {
	y := x - g.origin
	if g.inv != 0 {
		y *= g.inv
	} else {
		y /= g.step
	}
	if y < 0 {
		return 0
	}
	if !(y < math.MaxUint32) {
		return math.MaxUint32
	}
	// math.Round(y) without its branches: the truncation, plus one if what
	// it dropped less a half has no sign bit.
	q := int64(y)
	return uint32(q + int64(1-math.Float64bits(y-float64(q)-0.5)>>63))
}

func (g quantGrid) dequantize(q uint32) float64 { return g.origin + float64(q)*g.step }

// putVec and getVec move a position as three float64s.
func putVec(w *wire.Writer, v geom.Vec3) { w.F64(v.X); w.F64(v.Y); w.F64(v.Z) }
func getVec(r *wire.Reader) geom.Vec3 {
	return geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
}

// Encode serializes the block mesh as a v2 container. Its one allocation
// has room for the longest header and a typical body — two bytes per loop
// entry, four per face, 45 per cell — which only vertex indices or ids
// wider than 2^13 or 2^20 on average outgrow. The body is written first,
// then the header into the end of its room.
func (m *BlockMesh) Encode() ([]byte, error) {
	grids, err := checkEncodable(m)
	if err != nil {
		return nil, err
	}
	const headerRoom = 8 + 4 + 1 + 10 // magic, version, marker, longest length
	size := 104 + 12*len(m.Verts) + 45*m.NumCells() + 4*len(m.Neighbors) + 2*len(m.LoopVerts)
	w := wire.WriterOn(make([]byte, headerRoom, headerRoom+size))
	putVec(w, m.Extents.Min)
	putVec(w, m.Extents.Max)
	w.Uvarint(uint64(len(m.Verts)))
	if len(m.Verts) > 0 {
		for _, g := range grids {
			w.F64(g.origin)
		}
		for _, g := range grids {
			w.I32(g.exp)
		}
		gx, gy, gz := grids[0], grids[1], grids[2]
		for _, v := range m.Verts {
			w.U32(gx.quantize(v.X))
			w.U32(gy.quantize(v.Y))
			w.U32(gz.quantize(v.Z))
		}
	}
	w.Uvarint(uint64(m.NumCells()))
	for _, p := range m.Particles {
		putVec(w, p)
	}
	var prevID int64
	for _, id := range m.ParticleIDs {
		w.Svarint(id - prevID)
		prevID = id
	}
	for _, s := range [][]float64{m.Volumes, m.Areas} {
		for _, x := range s {
			w.F64(x)
		}
	}
	for i := 0; i < len(m.Complete); i += 8 {
		var bits byte
		for j, c := range m.Complete[i:min(i+8, len(m.Complete))] {
			if c {
				bits |= 1 << j
			}
		}
		w.U8(bits)
	}
	f, v := 0, 0
	for _, faceEnd := range m.FaceEnds {
		w.Uvarint(uint64(faceEnd - f))
		for ; f < faceEnd; f++ {
			loopEnd := m.LoopEnds[f]
			w.DeltaRun(m.Neighbors[f], m.LoopVerts[v:loopEnd])
			v = loopEnd
		}
	}
	w.U8(0)
	buf := w.Bytes()
	body := len(buf) - headerRoom - 1
	start := headerRoom - (8 + 4 + 1 + wire.UvarintLen(uint64(body)))
	h := wire.WriterOn(buf[start:start:headerRoom])
	h.U64(meshMagicFmt)
	h.U32(meshFormatV2)
	h.U8(1)
	h.Uvarint(uint64(body))
	return buf[start:], nil
}

// EncodeV2 is Encode, named for the layout it writes.
func EncodeV2(m *BlockMesh) ([]byte, error) { return m.Encode() }
