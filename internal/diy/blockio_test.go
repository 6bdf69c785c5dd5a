package diy

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm"
)

func writeBlocks(t *testing.T, path string, payloads [][]byte) int64 {
	t.Helper()
	w := comm.NewWorld(len(payloads))
	var total int64
	w.Run(func(rank int) {
		n, err := CollectiveWrite(w, rank, path, payloads[rank])
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
		if rank == 0 {
			total = n
		}
	})
	return total
}

func TestCollectiveWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blocks.tess")
	rng := rand.New(rand.NewSource(31))
	payloads := make([][]byte, 6)
	for i := range payloads {
		payloads[i] = make([]byte, rng.Intn(2000)+1)
		rng.Read(payloads[i])
	}
	total := writeBlocks(t, path, payloads)

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != total {
		t.Errorf("reported size %d, actual %d", total, st.Size())
	}

	idx, err := ReadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Offsets) != 6 {
		t.Fatalf("index has %d blocks", len(idx.Offsets))
	}
	all, err := ReadAllBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(payloads) {
		t.Fatalf("read %d blocks, want %d", len(all), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(all[i], p) {
			t.Fatalf("block %d round trip mismatch (%d vs %d bytes)", i, len(all[i]), len(p))
		}
	}
}

func TestCollectiveWriteEmptyBlocks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.tess")
	payloads := [][]byte{[]byte("abc"), nil, []byte("z")}
	writeBlocks(t, path, payloads)
	got, err := ReadAllBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "abc" || len(got[1]) != 0 || string(got[2]) != "z" {
		t.Errorf("blocks = %q", got)
	}
}

func TestCollectiveWriteSingleRank(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.tess")
	writeBlocks(t, path, [][]byte{[]byte("solo block")})
	got, err := ReadAllBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "solo block" {
		t.Errorf("got %q", got)
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(path); err == nil {
		t.Error("garbage file accepted")
	}
	small := filepath.Join(dir, "small")
	if err := os.WriteFile(small, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(small); err == nil {
		t.Error("tiny file accepted")
	}
	if _, err := ReadIndex(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReadIndexRejectsLyingFooter: a footer whose trailer arithmetic is
// consistent but whose entries point outside the payload must be an
// error naming the block — not a makeslice panic (size 2^64-1) or a
// terabyte allocation (size 2^40) in whoever sizes a buffer from it.
func TestReadIndexRejectsLyingFooter(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.tess")
	writeBlocks(t, good, [][]byte{[]byte("zero"), []byte("one!!"), []byte("two")})
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	const payload, entry1 = 12, 12 + 16 // footer starts after 4+5+3 payload bytes
	cases := []struct {
		name     string
		off      int // byte offset of the u64 to overwrite
		val      uint64
		wantName string
	}{
		{"size 2^64-1", entry1 + 8, math.MaxUint64, "block 1"},
		{"size 2^40", entry1 + 8, 1 << 40, "block 1"},
		{"size one past the payload", entry1 + 8, payload - 4 + 1, "block 1"},
		{"offset past the payload", entry1, payload + 1, "block 1"},
		{"offset 2^63", entry1, 1 << 63, "block 1"},
		{"last block runs into the footer", entry1 + 16 + 8, 4, "block 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint64(bad[c.off:], c.val)
			path := filepath.Join(dir, "bad.tess")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadIndex(path); err == nil || !strings.Contains(err.Error(), c.wantName) {
				t.Errorf("ReadIndex: %v, want an error naming %s", err, c.wantName)
			}
			if _, err := ReadAllBlocks(path); err == nil {
				t.Error("ReadAllBlocks accepted the footer")
			}
		})
	}
	// A block count the file cannot hold is rejected before the index is
	// allocated.
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[len(bad)-16:], 1<<60)
	path := filepath.Join(dir, "count.tess")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(path); err == nil {
		t.Error("block count 2^60 accepted")
	}
}

func TestCollectiveWriteCreateFailure(t *testing.T) {
	// Writing into a nonexistent directory fails on rank 0 and must
	// propagate an error to all ranks without deadlock.
	path := filepath.Join(string(os.PathSeparator), "no", "such", "dir", "f.tess")
	w := comm.NewWorld(4)
	errs := make([]error, 4)
	w.Run(func(rank int) {
		_, errs[rank] = CollectiveWrite(w, rank, path, []byte("x"))
	})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d got nil error", r)
		}
	}
}
