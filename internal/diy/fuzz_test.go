package diy

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadIndex: an index that parses describes sections that lie inside
// the file, so reading them allocates no more than the file holds.
func FuzzReadIndex(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.tess")
	if _, err := WriteBlocks(path, [][]byte{[]byte("zero"), {}, []byte("two")}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[len(valid)-trailerSize:])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := readIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		for i := range idx.Offsets {
			if off, size := idx.Offsets[i], idx.Sizes[i]; off < 0 || size < 0 || off+size > int64(len(data)) {
				t.Fatalf("section %d [%d, +%d) accepted in a %d-byte file", i, off, size, len(data))
			}
		}
	})
}
