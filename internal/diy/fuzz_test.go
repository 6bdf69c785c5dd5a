package diy

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

// FuzzUnmarshalDecomposition: whatever unmarshals is safe to use — Locate
// on probe points returns a block, and NewExchanger (which follows every
// link to its target block) survives for every rank. A resumed session
// does exactly these on the caller's goroutine.
func FuzzUnmarshalDecomposition(f *testing.F) {
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8))
	grid, err := Decompose(domain, 6, true)
	if err != nil {
		f.Fatal(err)
	}
	rcb, err := DecomposeRCB(domain, 5, true, randomParticles(rand.New(rand.NewSource(3)), 300, 8), 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []*Decomposition{grid, rcb} {
		raw, err := d.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDecomposition(data)
		if err != nil {
			return
		}
		lo, hi := d.Domain.Min, d.Domain.Max
		for _, p := range []geom.Vec3{lo, hi, lo.Mid(hi), geom.V(lo.X, hi.Y, lo.Z), geom.V(-1e300, 1e300, 0)} {
			if r := d.Locate(p); r < 0 || r >= d.NumBlocks() {
				t.Fatalf("Locate(%v) = %d of %d blocks", p, r, d.NumBlocks())
			}
		}
		for r := 0; r < d.NumBlocks(); r++ {
			NewExchanger(d, r, 1)
		}
	})
}

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
