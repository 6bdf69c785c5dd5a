package diy

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestWriteBlocksMatchesCollectiveLayout pins the serial writer to the
// collective one: same payloads, byte-identical file.
func TestWriteBlocksMatchesCollectiveLayout(t *testing.T) {
	payloads := [][]byte{
		[]byte("rank zero"),
		{},
		bytes.Repeat([]byte{0xab}, 1000),
		[]byte("tail"),
	}
	dir := t.TempDir()
	serial := filepath.Join(dir, "serial.bin")
	if _, err := WriteBlocks(serial, payloads); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllBlocks(serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d blocks, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("block %d: %d bytes, want %d", i, len(got[i]), len(payloads[i]))
		}
	}
	idx, err := ReadIndex(serial)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		if idx.Sizes[i] != int64(len(payloads[i])) {
			t.Fatalf("index size %d = %d, want %d", i, idx.Sizes[i], len(payloads[i]))
		}
	}
	if _, err := WriteBlocks(filepath.Join(dir, "no", "such", "dir.bin"), payloads); err == nil {
		t.Error("unwritable path accepted")
	}
}
