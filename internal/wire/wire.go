// Package wire is the one little-endian cursor behind every on-disk
// format in this module (mesh v1/v2, augmented particles, decomposition,
// block-file footer, particle records, density grid). The formats — magic
// numbers, layouts, format-specific validation — stay in the packages that
// own them; this package only moves scalars in and out of a byte slice.
//
// The contract is the same for all of them:
//
//   - a Writer appends to memory and cannot fail;
//   - a Reader's first error sticks: after it every read returns zero,
//     every Count returns 0, and Done reports that first error, so a
//     decoder checks once at the end instead of after each field;
//   - a Reader never lets a length field drive an allocation: Count
//     validates it against the bytes that remain before the caller makes
//     anything.
//
// Errors carry no package prefix; the decoder that owns the format adds
// its own when it returns them.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer is an append-only little-endian encoder. The zero value is ready
// to use.
type Writer struct{ buf []byte }

// NewWriter returns a Writer whose buffer has room for sizeHint bytes.
func NewWriter(sizeHint int) *Writer { return &Writer{buf: make([]byte, 0, sizeHint)} }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *Writer) U8(v byte)    { w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) I32(v int32)  { w.U32(uint32(v)) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) {
	w.U64(math.Float64bits(v))
}

// Bool writes one byte, 1 for true.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Uvarint writes v in the base-128 encoding of encoding/binary.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Svarint writes v zigzag-coded, so small magnitudes of either sign are
// short.
func (w *Writer) Svarint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Reader is a bounds-checked little-endian decoder over a byte slice.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Err returns the first error, if any.
func (r *Reader) Err() error { return r.err }

// Fail records a format violation found by the caller; like every other
// error it is kept only if it is the first.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Take returns the next n bytes (aliasing the input), or nil after
// recording a truncation error.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.Fail("truncated at offset %d: need %d bytes, have %d", r.off, n, r.Len())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}
func (r *Reader) Bool() bool { return r.U8() != 0 }
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}
func (r *Reader) I32() int32 { return int32(r.U32()) }
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads a base-128 varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Svarint reads a zigzag-coded varint.
func (r *Reader) Svarint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count validates a length field the caller has just read: n elements of
// at least minBytes encoded bytes each must fit in what remains. It
// returns n as an int, or 0 after recording an "implausible count" error
// — so the make() that follows is bounded by the input size.
func (r *Reader) Count(what string, n uint64, minBytes int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len())/uint64(minBytes) {
		r.Fail("implausible %s count %d with %d bytes left", what, n, r.Len())
		return 0
	}
	return int(n)
}

// Done returns the first error, or an error if unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() != 0 {
		r.Fail("%d trailing bytes", r.Len())
	}
	return r.err
}
