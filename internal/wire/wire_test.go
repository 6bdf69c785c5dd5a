package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.U8(1)
	w.U8(0)
	w.U32(0xdeadbeef)
	w.I32(-7)
	w.U64(1<<63 + 5)
	w.I64(math.MinInt64)
	w.F64(math.Copysign(0, -1))
	w.Uvarint(300)
	w.Svarint(-300)
	w.Svarint(math.MinInt64)
	for _, b := range []byte("tail") {
		w.U8(b)
	}
	want := []byte{0xab, 1, 0, 0xef, 0xbe, 0xad, 0xde, 0xf9, 0xff, 0xff, 0xff} // little-endian
	if got := w.Bytes(); string(got[:len(want)]) != string(want) {
		t.Fatalf("leading bytes % x, want % x", got[:len(want)], want)
	}

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if a, b := r.U8(), r.U8(); a != 1 || b != 0 {
		t.Errorf("U8s = %d, %d", a, b)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.I32(); v != -7 {
		t.Errorf("I32 = %d", v)
	}
	if v := r.U64(); v != 1<<63+5 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.I64(); v != math.MinInt64 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.F64(); v != 0 || !math.Signbit(v) {
		t.Errorf("F64 = %v, want -0", v)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Svarint(); v != -300 {
		t.Errorf("Svarint = %d", v)
	}
	if v := r.Svarint(); v != math.MinInt64 {
		t.Errorf("Svarint = %d", v)
	}
	if r.Len() != 4 || string(r.Take(4)) != "tail" {
		t.Error("Raw/Take round trip")
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
	if got := NewWriter(64); cap(got.Bytes()) < 64 || len(got.Bytes()) != 0 {
		t.Error("NewWriter size hint ignored")
	}
}

// TestFirstErrorSticks: after a truncation every read is zero, Count
// refuses, later Fail calls are ignored, and Done reports the truncation.
func TestFirstErrorSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || r.Err() == nil {
		t.Fatalf("short U32 = %d, err %v", v, r.Err())
	}
	first := r.Err()
	if r.U8() != 0 || r.U64() != 0 || r.F64() != 0 || r.Uvarint() != 0 || r.Svarint() != 0 || r.Take(1) != nil {
		t.Error("reads after an error are not zero")
	}
	if r.Len() != 3 {
		t.Errorf("failed read consumed input: %d left", r.Len())
	}
	if n := r.Count("thing", 1, 1); n != 0 {
		t.Errorf("Count after an error = %d", n)
	}
	r.Fail("later")
	if err := r.Done(); err != first || !strings.Contains(err.Error(), "truncated at offset 0") {
		t.Errorf("Done = %v, want the first error", err)
	}
}

func TestCountBoundsAllocation(t *testing.T) {
	r := NewReader(make([]byte, 100))
	if n := r.Count("rec", 12, 8); n != 12 || r.Err() != nil {
		t.Fatalf("Count(12 x 8 in 100) = %d, %v", n, r.Err())
	}
	if n := r.Count("rec", 13, 8); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible rec count 13") {
		t.Fatalf("Count(13 x 8 in 100) = %d, %v", n, r.Err())
	}
	// A count near 2^64 must not overflow its way past the check.
	r = NewReader(make([]byte, 100))
	if n := r.Count("rec", math.MaxUint64/8+2, 8); n != 0 || r.Err() == nil {
		t.Fatalf("overflowing count accepted: %d", n)
	}
}

func TestDoneAndVarintErrors(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("Done with unread input: %v", err)
	}
	for name, data := range map[string][]byte{
		"unterminated": {0x80, 0x80},
		"empty":        {},
		"overlong":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		r := NewReader(data)
		if v := r.Uvarint(); v != 0 || r.Err() == nil {
			t.Errorf("%s varint = %d, err %v", name, v, r.Err())
		}
	}
	r = NewReader([]byte{1})
	if r.Take(-1) != nil || r.Err() == nil {
		t.Error("negative Take accepted")
	}
}

// The varint fast paths write and read exactly what encoding/binary does,
// for values of every width, at every amount of spare capacity, and the
// length functions agree with them.
func TestVarintsMatchEncodingBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []uint64{0, 1, 1<<7 - 1, 1 << 7, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1<<35 + 3, math.MaxUint64}
	for range 2000 {
		vals = append(vals, rng.Uint64()>>rng.Intn(64))
	}
	for _, v := range vals {
		want := binary.AppendUvarint(nil, v)
		if n := UvarintLen(v); n != len(want) {
			t.Fatalf("UvarintLen(%d) = %d, want %d", v, n, len(want))
		}
		for spare := 0; spare <= len(want)+4; spare++ {
			// Sentinels past the capped capacity must survive.
			backing := bytes.Repeat([]byte{0xaa}, 1+spare+4)
			w := WriterOn(backing[: 1 : 1+spare])
			w.Uvarint(v)
			if got := w.Bytes()[1:]; !bytes.Equal(got, want) {
				t.Fatalf("Uvarint(%d) with %d spare = % x, want % x", v, spare, got, want)
			}
			if tail := backing[1+spare:]; !bytes.Equal(tail, []byte{0xaa, 0xaa, 0xaa, 0xaa}) {
				t.Fatalf("Uvarint(%d) with %d spare wrote past the capacity: % x", v, spare, tail)
			}
		}
		for _, tail := range [][]byte{nil, {0x80}, {0x80, 0x80, 0x80, 0x80}, {1, 2, 3, 4}} {
			r := NewReader(append(append([]byte(nil), want...), tail...))
			if got := r.Uvarint(); got != v || r.Len() != len(tail) || r.Err() != nil {
				t.Fatalf("Uvarint read % x = %d with %d left (%v), want %d", want, got, r.Len(), r.Err(), v)
			}
		}
	}
	// A non-minimal encoding reads as encoding/binary reads it.
	for _, b := range [][]byte{{0x80, 0x00, 0, 0}, {0xff, 0x80, 0x00, 0}} {
		want, n := binary.Uvarint(b)
		r := NewReader(b)
		if got := r.Uvarint(); got != want || len(b)-r.Len() != n {
			t.Errorf("% x: %d after %d bytes, want %d after %d", b, got, len(b)-r.Len(), want, n)
		}
	}
}

// A delta run is its head's Svarint, its length's Uvarint and each
// element's delta Svarint, whatever the deltas' widths and the spare
// capacity; it reads back whole, and a truncated run or an element
// outside the reader's limit is an error.
func TestDeltaRun(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := range 500 {
		vs := make([]int32, rng.Intn(200))
		limit := 1 + rng.Intn(1<<uint(1+rng.Intn(30)))
		for i := range vs {
			vs[i] = int32(rng.Intn(limit))
		}
		head := rng.Int63() >> rng.Intn(63)
		if rng.Intn(2) == 0 {
			head = -head
		}
		var ref Writer
		ref.Svarint(head)
		ref.Uvarint(uint64(len(vs)))
		var prev int32
		for _, v := range vs {
			ref.Svarint(int64(v) - int64(prev))
			prev = v
		}
		want := ref.Bytes()
		w := WriterOn(make([]byte, 0, rng.Intn(len(want)+8)))
		w.DeltaRun(head, vs)
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("trial %d: DeltaRun wrote % x, want % x", trial, w.Bytes(), want)
		}

		r := NewReader(append(want, 9))
		gotHead, got := r.DeltaRun(nil, limit)
		if r.Err() != nil || gotHead != head || !slices.Equal(got, vs) || r.Len() != 1 {
			t.Fatalf("trial %d: read head %d, %d elements, %d left, err %v", trial, gotHead, len(got), r.Len(), r.Err())
		}
		if len(vs) > 0 {
			max := slices.Max(vs)
			r = NewReader(want)
			if _, _ = r.DeltaRun(nil, int(max)); r.Err() == nil {
				t.Fatalf("trial %d: element %d accepted under limit %d", trial, max, max)
			}
			r = NewReader(want[:len(want)-1])
			if r.DeltaRun(nil, limit); r.Err() == nil {
				t.Fatalf("trial %d: truncated run read", trial)
			}
		}
	}
}
