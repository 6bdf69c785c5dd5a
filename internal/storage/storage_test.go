package storage

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/diy"
	"repro/internal/geom"
)

func testParticles(seed int64, n int) []diy.Particle {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]diy.Particle, n)
	for i := range ps {
		ps[i] = diy.Particle{ID: int64(i), Pos: geom.V(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8)}
	}
	return ps
}

// drain reads every chunk in order, releasing each before the next (the
// session's consumption pattern), and returns the concatenation.
func drain(t *testing.T, src Source) []diy.Particle {
	t.Helper()
	var all []diy.Particle
	for c := 0; c < src.Chunks(); c++ {
		parts, err := src.Chunk(c)
		if err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
		all = append(all, parts...)
		src.Release(c)
	}
	return all
}

func TestSnapshotRoundTrip(t *testing.T) {
	ps := testParticles(1, 1000)
	path := filepath.Join(t.TempDir(), "snap.bin")
	for _, chunks := range []int{1, 4, 7, 16} {
		if err := WriteSnapshot(path, ps, chunks); err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		src, err := OpenFileSource(path, 0)
		if err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		if src.Chunks() != chunks {
			t.Fatalf("Chunks() = %d, want %d", src.Chunks(), chunks)
		}
		if src.TotalParticles() != len(ps) {
			t.Fatalf("TotalParticles() = %d, want %d", src.TotalParticles(), len(ps))
		}
		got := drain(t, src)
		if len(got) != len(ps) {
			t.Fatalf("chunks=%d: drained %d particles, want %d", chunks, len(got), len(ps))
		}
		for i := range ps {
			if got[i] != ps[i] {
				t.Fatalf("chunks=%d: particle %d = %+v, want %+v", chunks, i, got[i], ps[i])
			}
		}
		src.Close()
	}
	if err := WriteSnapshot(path, ps, 0); err == nil {
		t.Fatal("zero chunk count accepted")
	}
}

func TestFileSourceWindowAccounting(t *testing.T) {
	ps := testParticles(2, 800)
	path := filepath.Join(t.TempDir(), "snap.bin")
	const chunks = 8
	if err := WriteSnapshot(path, ps, chunks); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	drain(t, src)
	st := src.Stats()
	if st.Loads != chunks {
		t.Errorf("Loads = %d, want %d", st.Loads, chunks)
	}
	if st.PeakResidentChunks > 2 {
		t.Errorf("PeakResidentChunks = %d exceeds window 2", st.PeakResidentChunks)
	}
	if st.PeakResidentParticles >= st.TotalParticles {
		t.Errorf("peak resident %d not below total %d — the window did not bound staging",
			st.PeakResidentParticles, st.TotalParticles)
	}
	if st.Evictions != chunks-2 {
		t.Errorf("Evictions = %d, want %d", st.Evictions, chunks-2)
	}

	// A re-read after eviction decodes again (counted as a new load) and
	// still returns the right particles.
	first, err := src.Chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if src.Stats().Loads != chunks+1 {
		t.Errorf("reload not counted: Loads = %d", src.Stats().Loads)
	}
	if first[0] != ps[0] {
		t.Errorf("reloaded chunk 0 starts with %+v, want %+v", first[0], ps[0])
	}
	src.Release(0)

	// A pinned chunk survives pressure from later loads.
	pinned, err := src.Chunk(1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 2; c < chunks; c++ {
		if _, err := src.Chunk(c); err != nil {
			t.Fatal(err)
		}
		src.Release(c)
	}
	again, err := src.Chunk(1)
	if err != nil {
		t.Fatal(err)
	}
	if &pinned[0] != &again[0] {
		t.Error("pinned chunk was evicted under window pressure")
	}
}

func TestFileSourceErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	if err := WriteSnapshot(path, testParticles(3, 64), 4); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Chunk(-1); err == nil {
		t.Error("negative chunk index accepted")
	}
	if _, err := src.Chunk(4); err == nil {
		t.Error("out-of-range chunk index accepted")
	}
	if _, err := OpenFileSource(filepath.Join(dir, "missing.bin"), 0); err == nil {
		t.Error("missing file accepted")
	}
	// A block file whose sections are not snapshot chunks must be
	// rejected at open (the header probe).
	other := filepath.Join(dir, "other.bin")
	if _, err := diy.WriteBlocks(other, [][]byte{make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileSource(other, 0); err == nil {
		t.Error("non-snapshot block file accepted")
	}
	// A footer entry claiming a terabyte chunk must fail at open, not
	// reach Chunk's buffer allocation; so must a chunk header whose
	// count disagrees with its section.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := len(raw) - 24 - 4*16
	for name, patch := range map[string]struct {
		off int
		val uint64
	}{
		"chunk 1 of 2^40 bytes":      {footer + 16 + 8, 1 << 40},
		"chunk 0 header count is 99": {8, 99},
	} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(bad[patch.off:], patch.val)
		lying := filepath.Join(dir, "lying.bin")
		if err := os.WriteFile(lying, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if src, err := OpenFileSource(lying, 0); err == nil {
			src.Close()
			t.Errorf("%s: accepted at open", name)
		}
	}
}

func TestSliceSource(t *testing.T) {
	ps := testParticles(4, 10)
	src := NewSliceSource(ps)
	if src.Chunks() != 1 {
		t.Fatalf("Chunks() = %d", src.Chunks())
	}
	got, err := src.Chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &ps[0] {
		t.Error("SliceSource copied the slice")
	}
	src.Release(0)
	if _, err := src.Chunk(1); err == nil {
		t.Error("chunk 1 of a slice source accepted")
	}
	st := src.Stats()
	if st.TotalParticles != 10 || st.PeakResidentParticles != 10 || st.Loads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func testCheckpoint(blocks int) *Checkpoint {
	c := &Checkpoint{
		Manifest: Manifest{
			Steps:         3,
			NumBlocks:     blocks,
			Periodic:      true,
			Domain:        [6]float64{0, 0, 0, 8, 8, 8},
			Ghost:         3,
			Decomp:        "grid",
			Rebalances:    1,
			LastImbalance: 1.25,
			WarmSites:     make([]int64, blocks),
			ColdSites:     make([]int64, blocks),
		},
		Decomp: []byte{1, 2, 3, 4},
	}
	for r := 0; r < blocks; r++ {
		c.Manifest.WarmSites[r] = int64(10 * r)
		c.Manifest.ColdSites[r] = int64(r)
		m := map[int64]geom.Vec3{}
		for i := 0; i < 5; i++ {
			m[int64(r*100+i)] = geom.V(float64(i), float64(r), 0.5)
		}
		c.Prev = append(c.Prev, m)
		c.Meshes = append(c.Meshes, []byte{byte(r), 0xaa, byte(r)})
	}
	return c
}

func TestCheckpointSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	if HasCheckpoint(dir) {
		t.Fatal("empty dir reports a checkpoint")
	}
	want := testCheckpoint(3)
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	if !HasCheckpoint(dir) {
		t.Fatal("saved checkpoint not detected")
	}
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Steps != 3 || man.NumBlocks != 3 || man.Version != ManifestVersion {
		t.Fatalf("manifest = %+v", man)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Domain != want.Manifest.Domain || got.Manifest.LastImbalance != 1.25 {
		t.Errorf("manifest round trip: %+v", got.Manifest)
	}
	if string(got.Decomp) != string(want.Decomp) {
		t.Errorf("decomp bytes differ")
	}
	for r := range want.Prev {
		if len(got.Prev[r]) != len(want.Prev[r]) {
			t.Fatalf("rank %d prev size %d, want %d", r, len(got.Prev[r]), len(want.Prev[r]))
		}
		for id, p := range want.Prev[r] {
			if got.Prev[r][id] != p {
				t.Fatalf("rank %d site %d = %+v, want %+v", r, id, got.Prev[r][id], p)
			}
		}
		if string(got.Meshes[r]) != string(want.Meshes[r]) {
			t.Errorf("rank %d mesh bytes differ", r)
		}
	}

	// Overwriting with a deeper checkpoint commits cleanly.
	want.Manifest.Steps = 7
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	if man, _ := LoadManifest(dir); man.Steps != 7 {
		t.Errorf("overwrite: steps = %d, want 7", man.Steps)
	}
}

func TestCheckpointLoadRejectsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	if err := Save(dir, testCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	// Version skew.
	bad := []byte(`{"version": 99, "num_blocks": 2}`)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("version-skewed manifest accepted")
	}
	// Manifest/artifact inconsistency: blocks claim does not match the
	// mesh file.
	bad = []byte(`{"version": 1, "num_blocks": 5}`)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("block-count mismatch accepted")
	}
	// Unparseable manifest.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("truncated manifest accepted")
	}
	// Corrupt prev sites payload.
	if err := Save(dir, testCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := diy.WriteBlocks(filepath.Join(dir, "prev.bin"), [][]byte{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("corrupt prev sites accepted")
	}
	// Missing checkpoint directory.
	if _, err := Load(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestSitesRoundTripDeterministic(t *testing.T) {
	m := map[int64]geom.Vec3{}
	for i := 0; i < 64; i++ {
		m[int64(i*7%64)] = geom.V(float64(i), -float64(i), 0.25*float64(i))
	}
	enc := encodeSites(m)
	// Map iteration order must not leak into the bytes.
	for i := 0; i < 8; i++ {
		if string(encodeSites(m)) != string(enc) {
			t.Fatal("encodeSites is nondeterministic")
		}
	}
	dec, err := decodeSites(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(m) {
		t.Fatalf("decoded %d sites, want %d", len(dec), len(m))
	}
	for id, p := range m {
		if dec[id] != p {
			t.Fatalf("site %d = %+v, want %+v", id, dec[id], p)
		}
	}
	if _, err := decodeSites(enc[:8]); err == nil {
		t.Error("truncated sites accepted")
	}
	if _, err := decodeSites(enc[8:]); err == nil {
		t.Error("bad magic accepted")
	}
	enc[20]++ // corrupt a payload byte: size check still passes, values differ
	if _, err := decodeSites(enc[:len(enc)-32]); err == nil {
		t.Error("size mismatch accepted")
	}
}
