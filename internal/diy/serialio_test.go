package diy

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/geom"
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

// TestMarshalDecompositionGrid round-trips a regular-grid decomposition
// through the binary form and checks the reconstruction locates and
// links identically.
func TestMarshalDecompositionGrid(t *testing.T) {
	for _, blocks := range []int{1, 2, 8} {
		d, err := Decompose(geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8)), blocks, true)
		if err != nil {
			t.Fatal(err)
		}
		checkDecompRoundTrip(t, d)
	}
}

// TestMarshalDecompositionRCB does the same for an RCB decomposition,
// whose cut tree and explicit link table must survive serialization for
// Locate to keep working.
func TestMarshalDecompositionRCB(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ps []Particle
	for i := 0; i < 500; i++ {
		// Clustered: Locate must be exercised off the grid fast path.
		base := geom.V(2+4*rng.Float64(), 2, 6)
		ps = append(ps, Particle{ID: int64(i), Pos: geom.Vec3{
			X: base.X + rng.Float64(),
			Y: base.Y + rng.Float64()*4,
			Z: base.Z*rng.Float64() + 1,
		}})
	}
	for _, blocks := range []int{2, 4, 8} {
		d, err := DecomposeRCB(geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8)), blocks, true, ps, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkDecompRoundTrip(t, d)
	}
}

func checkDecompRoundTrip(t *testing.T, d *Decomposition) {
	t.Helper()
	raw, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Marshal must be deterministic (checkpoint bytes are compared).
	raw2, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("MarshalBinary is nondeterministic")
	}
	got, err := UnmarshalDecomposition(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBlocks() != d.NumBlocks() || got.Domain != d.Domain || got.Periodic != d.Periodic {
		t.Fatalf("round trip: %d blocks %v, want %d blocks %v",
			got.NumBlocks(), got.Domain, d.NumBlocks(), d.Domain)
	}
	for r := 0; r < d.NumBlocks(); r++ {
		if got.Block(r) != d.Block(r) {
			t.Fatalf("block %d: %+v != %+v", r, got.Block(r), d.Block(r))
		}
		wantN, gotN := d.Neighbors(r), got.Neighbors(r)
		if len(wantN) != len(gotN) {
			t.Fatalf("rank %d: %d neighbors, want %d", r, len(gotN), len(wantN))
		}
		for i := range wantN {
			if wantN[i] != gotN[i] {
				t.Fatalf("rank %d neighbor %d: %+v != %+v", r, i, gotN[i], wantN[i])
			}
		}
	}
	// Locate agreement over a deterministic point sweep.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		p := geom.V(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8)
		if a, b := d.Locate(p), got.Locate(p); a != b {
			t.Fatalf("Locate(%v) = %d after round trip, want %d", p, b, a)
		}
	}
}

// TestUnmarshalDecompositionRejectsGarbage covers the defensive paths.
func TestUnmarshalDecompositionRejectsGarbage(t *testing.T) {
	d, err := Decompose(geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4)), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalDecomposition(nil); err == nil {
		t.Error("empty input accepted")
	}
	for i := 1; i < len(raw); i += 7 {
		if _, err := UnmarshalDecomposition(raw[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := UnmarshalDecomposition(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := UnmarshalDecomposition(append(raw, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestUnmarshalDecompositionRejectsUnsafe: bytes that parse but would
// crash whoever uses the result — an index panic in Locate or, through
// NewExchanger, inside ResumeSession on the caller's goroutine — must be
// errors at unmarshal.
func TestUnmarshalDecompositionRejectsUnsafe(t *testing.T) {
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8))
	grid, err := Decompose(domain, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	rcb, err := DecomposeRCB(domain, 4, true, randomParticles(rng, 200, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Layout offsets (marshal.go): header, 80-byte blocks, then for RCB a
	// flag byte, the node count, 20-byte nodes, root, link ghost, list
	// count, and per list a count and 57-byte links.
	const (
		dims0     = 8 + 48
		blocks    = dims0 + 24 + 1 + 8
		nodes     = blocks + 4*80 + 1 + 8
		root      = nodes + 3*20
		firstLink = root + 4 + 8 + 8 + 8
	)
	cases := []struct {
		name string
		d    *Decomposition
		off  int
		val  any // uint64 or uint32 to write at off
	}{
		{"grid block rank is not its index", grid, blocks + 80, uint64(0)},
		{"grid dims product is not the block count", grid, dims0, uint64(3)},
		{"grid dim zero", grid, dims0 + 16, uint64(0)},
		{"grid dim negative", grid, dims0, ^uint64(0)},
		{"grid coordinates of another block", grid, blocks + 8, uint64(1)},
		{"rcb block rank is not its index", rcb, blocks + 2*80, uint64(7)},
		{"rcb axis 3", rcb, nodes, uint32(3)},
		{"rcb child past the node table", rcb, nodes + 12, uint32(3)},
		{"rcb child cycle", rcb, nodes + 20 + 12, uint32(1)},
		{"rcb child back-reference", rcb, nodes + 2*20 + 16, uint32(0)},
		{"rcb leaf past the blocks", rcb, nodes + 20 + 12, ^uint32(4)},
		{"rcb root past the node table", rcb, root, uint32(3)},
		{"rcb link rank is the block count", rcb, firstLink, uint64(4)},
		{"rcb link rank negative", rcb, firstLink, ^uint64(0)},
	}
	for _, c := range cases {
		raw, err := c.d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		switch v := c.val.(type) {
		case uint64:
			binary.LittleEndian.PutUint64(raw[c.off:], v)
		case uint32:
			binary.LittleEndian.PutUint32(raw[c.off:], v)
		}
		if _, err := UnmarshalDecomposition(raw); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
