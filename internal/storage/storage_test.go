package storage

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// A snapshot cut anywhere short of its end never yields particles: the
// open fails, or else every chunk read does. The index and chunk decoders
// have fuzz targets of their own; this is the file they compose into.
func TestFileSourceTruncated(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "snap.bin")
	if err := WriteSnapshot(full, testParticles(4, 24), 3); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.bin")
	for n := range len(raw) {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenFileSource(cut, 0)
		if err != nil {
			continue
		}
		for c := range src.Chunks() {
			if ps, err := src.Chunk(c); err == nil {
				t.Errorf("%d of %d bytes: chunk %d read %d particles", n, len(raw), c, len(ps))
			}
		}
		src.Close()
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

func testManifest(blocks int) Manifest {
	man := Manifest{
		Steps:     3,
		NumBlocks: blocks,
		Periodic:  true,
		Domain:    [6]float64{0, 0, 0, 8, 8, 8},
		Ghost:     3,
		Decomp:    "grid",
		WarmSites: make([]int64, blocks),
		ColdSites: make([]int64, blocks),
	}
	for r := 0; r < blocks; r++ {
		man.WarmSites[r] = int64(10 * r)
		man.ColdSites[r] = int64(r)
	}
	return man
}

func TestCheckpointSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	if _, err := Load(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load of a missing checkpoint: %v, want an error wrapping fs.ErrNotExist", err)
	}
	want := testManifest(3)
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want.Version = ManifestVersion
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("manifest round trip: %+v, want %+v", *got, want)
	}
	// The directory is the manifest and nothing else — no temp file left
	// behind, nothing that scales with the mesh.
	var names []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"manifest.json"}) {
		t.Errorf("checkpoint dir holds %v", names)
	}

	// Overwriting with a deeper checkpoint commits cleanly.
	want.Steps = 7
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(dir); err != nil || got.Steps != 7 {
		t.Errorf("overwrite: %+v, err %v, want 7 steps", got, err)
	}

	// RCB cuts survive the JSON round trip bit for bit, the shortest
	// decimal that parses back included.
	rcb := testManifest(4)
	rcb.Decomp = "rcb"
	rcb.Cuts = []float64{0.1 + 0.2, 8.0 / 3, math.Nextafter(4, 5)}
	if err := Save(dir, rcb); err != nil {
		t.Fatal(err)
	}
	got, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rcb.Cuts {
		if math.Float64bits(got.Cuts[i]) != math.Float64bits(c) {
			t.Errorf("cut %d: %v read back as %v", i, c, got.Cuts[i])
		}
	}
}

// A Save that cannot commit fails with a storage error and leaves the
// previous checkpoint loading exactly as before: here the temp path is
// taken by a directory, so the manifest can be neither written nor
// renamed into place.
func TestCheckpointFailedSaveKeepsPrevious(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	if err := Save(dir, testManifest(3)); err != nil {
		t.Fatal(err)
	}
	before, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, manifestName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	deeper := testManifest(3)
	deeper.Steps = 7
	err = Save(dir, deeper)
	if err == nil || !strings.HasPrefix(err.Error(), "storage: ") {
		t.Fatalf("Save over an occupied temp path: err %v, want a storage error", err)
	}
	after, err := Load(dir)
	if err != nil {
		t.Fatalf("previous checkpoint no longer loads: %v", err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Errorf("previous checkpoint changed: %+v, want %+v", after, before)
	}
}

// validManifest is testManifest(2) as Save writes it; the corruption rows
// below are edits of it.
const validManifest = `{"version": 3, "steps": 3, "num_blocks": 2, "periodic": true,
	"domain": [0, 0, 0, 8, 8, 8], "ghost": 3, "decomp": "grid",
	"warm_sites": [0, 10], "cold_sites": [0, 1]}`

func TestCheckpointLoadRejectsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	if err := Save(dir, testManifest(2)); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(manifest, []byte(validManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	want := testManifest(2)
	want.Version = ManifestVersion
	if got, err := Load(dir); err != nil || !reflect.DeepEqual(*got, want) {
		t.Fatalf("the literal valid manifest: %+v, err %v", got, err)
	}
	for _, tc := range []struct{ name, old, new, reason string }{
		{"version skew", `"version": 3`, `"version": 99`, "version 99"},
		{"previous format version", `"version": 3`, `"version": 2`, "version 2"},
		{"first format version", `"version": 3`, `"version": 1`, "version 1"},
		{"block count the counters do not match", `"num_blocks": 2`, `"num_blocks": 5`, "2 counters for 5 blocks"},
		{"negative steps", `"steps": 3`, `"steps": -3`, "-3 steps"},
		{"zero steps", `"steps": 3`, `"steps": 0`, "0 steps"},
		{"zero blocks", `"num_blocks": 2`, `"num_blocks": 0`, "0 blocks"},
		{"a counter too many", `"warm_sites": [0, 10]`, `"warm_sites": [0, 10, 20]`, "warm_sites holds 3 counters for 2 blocks"},
		{"missing counters", `"cold_sites": [0, 1]`, `"cold_sites": null`, "cold_sites holds 0 counters"},
		{"negative counter", `"cold_sites": [0, 1]`, `"cold_sites": [0, -1]`, "cold_sites[1] = -1"},
		{"unknown decomposition kind", `"decomp": "grid"`, `"decomp": "octree"`, `"octree"`},
		{"grid with a cut", `"decomp": "grid"`, `"decomp": "grid", "cuts": [4]`, "1 cuts for 2 grid blocks, want 0"},
		{"rcb without its cut", `"decomp": "grid"`, `"decomp": "rcb"`, "0 cuts for 2 rcb blocks, want 1"},
		{"rcb with a cut too many", `"decomp": "grid"`, `"decomp": "rcb", "cuts": [4, 2]`, "2 cuts for 2 rcb blocks, want 1"},
		{"non-finite cut", `"decomp": "grid"`, `"decomp": "rcb", "cuts": [1e999]`, "cuts"},
		{"non-numeric cut", `"decomp": "grid"`, `"decomp": "rcb", "cuts": ["NaN"]`, "cuts"},
		{"non-finite ghost", `"ghost": 3`, `"ghost": 1e999`, "ghost"},
		{"non-finite domain", `[0, 0, 0, 8, 8, 8]`, `[0, 0, 0, 8, 8, 1e999]`, "domain"},
		{"non-numeric domain", `[0, 0, 0, 8, 8, 8]`, `[0, 0, 0, 8, 8, "NaN"]`, "domain"},
		{"truncated manifest", validManifest, validManifest[:len(validManifest)/2], "manifest"},
	} {
		bad := strings.Replace(validManifest, tc.old, tc.new, 1)
		if bad == validManifest {
			t.Fatalf("%s: the edit changed nothing", tc.name)
		}
		if err := os.WriteFile(manifest, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: Load = %v, want an error mentioning %q", tc.name, err, tc.reason)
		}
	}
	// Missing checkpoint directory.
	if _, err := Load(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing dir accepted")
	}
}
