// Package wire is the one little-endian cursor behind every on-disk
// format in this module (mesh v2, augmented particles, decomposition,
// block-file footer, particle records, density grid). The formats — magic
// numbers, layouts, format-specific validation — stay in the packages that
// own them; this package only moves scalars and runs in and out of bytes.
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
	"math/bits"
)

// Writer is an append-only little-endian encoder. The zero value is ready
// to use. Its buffer's spare capacity is its scratch.
type Writer struct{ buf []byte }

// NewWriter returns a Writer whose buffer has room for sizeHint bytes.
func NewWriter(sizeHint int) *Writer { return &Writer{buf: make([]byte, 0, sizeHint)} }

// WriterOn returns a Writer that appends to buf, filling its spare
// capacity first; cap buf (buf[i:j:k]) to keep bytes past its length.
func WriterOn(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

func (w *Writer) U8(v byte)    { w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) I32(v int32)  { w.U32(uint32(v)) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) {
	w.U64(math.Float64bits(v))
}

// Uvarint writes v in the base-128 encoding of encoding/binary.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Svarint writes v zigzag-coded, so small magnitudes of either sign are
// short.
func (w *Writer) Svarint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// DeltaRun writes one delta-coded run: head as an Svarint, the length of
// vs as a Uvarint, then each element of vs as the Svarint of its
// difference from the one before, the first from zero.
func (w *Writer) DeltaRun(head int64, vs []int32) {
	buf := binary.AppendUvarint(binary.AppendUvarint(w.buf, zigzag(head)), uint64(len(vs)))
	full, n := buf[:cap(buf)], len(buf)
	var prev int32
	for _, v := range vs {
		z := zigzag(int64(v) - int64(prev))
		prev = v
		if z >= 1<<14 || n+2 > len(full) {
			buf := binary.AppendUvarint(full[:n], z)
			full, n = buf[:cap(buf)], len(buf)
			continue
		}
		// One or two bytes, about equally common in a mesh's loops, so the
		// length is computed: a branch on it would often be mispredicted.
		two := (z + 1<<14 - 1<<7) >> 14 // 1 if z needs a second byte
		full[n] = byte(z) | byte(two<<7)
		full[n+1] = byte(z >> 7)
		n += 1 + int(two)
	}
	w.buf = full[:n]
}

// UvarintLen is the number of bytes Uvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1)*9 + 64) / 64 }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

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

// DeltaRun reads a run DeltaRun wrote, appending its elements to dst.
// An element outside [0, limit) is an error.
func (r *Reader) DeltaRun(dst []int32, limit int) (head int64, out []int32) {
	head = unzigzag(r.Uvarint())
	n := r.Count("run element", r.Uvarint(), 1)
	data, off := r.data, r.off
	var v int64
	for range n {
		if off+2 > len(data) || data[off]&data[off+1] >= 0x80 {
			// Three bytes or more, or the end of the input.
			r.off = off
			v += unzigzag(r.Uvarint())
			off = r.off
		} else {
			// One or two bytes, decoded without a branch on which.
			two := int(data[off] >> 7)
			z := uint64(data[off]&0x7f) | uint64(data[off+1])<<7&-uint64(two)
			v += unzigzag(z)
			off += 1 + two
		}
		if v < 0 || v >= int64(limit) {
			r.off = off
			r.Fail("run element %d out of range [0, %d)", v, limit)
			return 0, dst
		}
		dst = append(dst, int32(v))
	}
	if r.err != nil {
		return 0, dst
	}
	r.off = off
	return head, dst
}

// Svarint reads a zigzag-coded varint.
func (r *Reader) Svarint() int64 { return unzigzag(r.Uvarint()) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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
