package wire

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.I32(-7)
	w.U64(1<<63 + 5)
	w.I64(math.MinInt64)
	w.F64(math.Copysign(0, -1))
	w.Uvarint(300)
	w.Svarint(-300)
	w.Svarint(math.MinInt64)
	w.Raw([]byte("tail"))
	want := []byte{0xab, 1, 0, 0xef, 0xbe, 0xad, 0xde, 0xf9, 0xff, 0xff, 0xff} // little-endian, one byte per bool
	if got := w.Bytes(); string(got[:len(want)]) != string(want) {
		t.Fatalf("leading bytes % x, want % x", got[:len(want)], want)
	}

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
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
	if r.U8() != 0 || r.Bool() || r.U64() != 0 || r.F64() != 0 || r.Uvarint() != 0 || r.Svarint() != 0 || r.Take(1) != nil {
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
