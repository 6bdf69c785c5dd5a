package tess

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
)

// formatGolden pins the SHA-256 of every on-disk format on one fixed
// seeded input. The digests were produced by running this test at
// commit 314ef2e (PR 14), before the formats moved onto internal/wire,
// so a pass means the bytes written today are the bytes that build
// wrote — and, because the test also reads every artifact back, that
// files written by that build decode under this one.
var formatGolden = map[string]string{
	"mesh-v1 blocks":  "107ddcbf2b575c3d073454dab74dd311cd2e2125070d4b580af045c103733e54",
	"mesh-v2 blocks":  "beefb7a9b7f3f11bfed2dddc0fb8e9e736373b19832ac4927bc9648ef506a9a4",
	"augmented":       "171bc858ceabe9fb1e3598016a8f4222817a1c42fbb12669eabd96726550e02f",
	"decomp grid":     "d093ae863a5ec7a4b190e048228c3449c6c3eeb26e7c1f696ce110ba89f81c8e",
	"decomp rcb":      "c7d2826021b0a8846c0e1e68e2834f4676dc6f9b00c9724b9fc14a921515b49c",
	"density grid":    "970c5fb4f1c001a1f1094401ad573edf1bac2cc07e0668d10c38256eb84c7497",
	"snap.bin":        "fb1645806f7f8147fcaf3714b13da6c013bf51f626f22327d0d59492d21fd171",
	"tess.out":        "c1b157c8a56457d07fac02e8efe3c51182b9f2e81d085fd942ad84a518b54f1b",
	"ckpt/decomp.bin": "6ef6732dc3ee5fd0871e4e6441a22c7f116c81a22e25fd19ee05df386060d78c",
	// Manifest version 2 (PR 22): no wall-clock field, so it has a digest.
	"ckpt/manifest.json": "54447e5e127b95fcbaafa7f1b1ab4da32b9283d5573edcd7cb74182bd2bbefe3",
}

func TestFormatGolden(t *testing.T) {
	const L, blocks, ghost = 10.0, 4, 3.0
	rng := rand.New(rand.NewSource(20120615))
	pos := make([]Vec3, 1000)
	for i := range pos {
		pos[i] = geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L)
	}
	ps := ParticlesFromPositions(pos)
	dir := t.TempDir()
	got := map[string]string{}
	sum := func(name string, chunks ...[]byte) {
		h := sha256.New()
		for _, c := range chunks {
			h.Write(c)
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	sumFile := func(name, path string) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum(name, b)
	}

	cfg := NewPeriodicConfig(L, WithGhostSize(ghost), WithDecomposition(DecomposeRCB))
	sess, err := Open(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tessOut := filepath.Join(dir, "tess.out")
	out, err := sess.Step(ps, WithOutputPath(tessOut))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")
	if err := sess.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}

	// Per-block mesh bytes, both versions, and what they decode to.
	var v1, v2 [][]byte
	cells := 0
	for r, m := range out.Meshes {
		b1, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := meshio.EncodeV2(m)
		if err != nil {
			t.Fatal(err)
		}
		v1, v2 = append(v1, b1), append(v2, b2)
		d1, err := meshio.DecodeBlockMesh(b1)
		if err != nil {
			t.Fatalf("block %d v1 decode: %v", r, err)
		}
		if !reflect.DeepEqual(d1, m) {
			t.Errorf("block %d: v1 round trip is not the identity", r)
		}
		d2, err := meshio.DecodeBlockMesh(b2)
		if err != nil {
			t.Fatalf("block %d v2 decode: %v", r, err)
		}
		if !reflect.DeepEqual(d2.Particles, m.Particles) || !reflect.DeepEqual(d2.Cells, m.Cells) {
			t.Errorf("block %d: v2 round trip lost sites or connectivity", r)
		}
		cells += m.NumCells()
	}
	sum("mesh-v1 blocks", v1...)
	sum("mesh-v2 blocks", v2...)

	aug := meshio.AugmentParticles(out.Meshes[0])
	augBytes, err := meshio.EncodeAugmented(aug)
	if err != nil {
		t.Fatal(err)
	}
	sum("augmented", augBytes)
	if back, err := meshio.DecodeAugmented(augBytes); err != nil || !reflect.DeepEqual(back, aug) {
		t.Errorf("augmented round trip: err=%v", err)
	}

	grid, err := diy.Decompose(cfg.Domain, blocks, true)
	if err != nil {
		t.Fatal(err)
	}
	rcb, err := diy.DecomposeRCB(cfg.Domain, blocks, true, ps, ghost)
	if err != nil {
		t.Fatal(err)
	}
	var rcbBytes []byte
	for name, d := range map[string]*diy.Decomposition{"decomp grid": grid, "decomp rcb": rcb} {
		b, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum(name, b)
		back, err := diy.UnmarshalDecomposition(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b2, _ := back.MarshalBinary(); string(b2) != string(b) {
			t.Errorf("%s: unmarshal→marshal is not byte-stable", name)
		}
		if name == "decomp rcb" {
			rcbBytes = b
		}
	}

	gridBytes := EncodeDensityGrid(out.Meshes[0].Volumes)
	sum("density grid", gridBytes)
	if back, err := DecodeDensityGrid(gridBytes); err != nil || !reflect.DeepEqual(back, out.Meshes[0].Volumes) {
		t.Errorf("density grid round trip: err=%v", err)
	}

	snap := filepath.Join(dir, "snap.bin")
	if err := WriteSnapshot(snap, ps, 7); err != nil {
		t.Fatal(err)
	}
	sumFile("snap.bin", snap)
	src, err := OpenFileSource(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var streamed []Particle
	for c := 0; c < src.Chunks(); c++ {
		chunk, err := src.Chunk(c)
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, chunk...)
		src.Release(c)
	}
	if src.Chunks() != 7 || !reflect.DeepEqual(streamed, ps) {
		t.Errorf("snapshot read back %d chunks / %d particles, want 7 / %d", src.Chunks(), len(streamed), len(ps))
	}

	sumFile("tess.out", tessOut)
	recs, err := ReadTessFile(tessOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != cells {
		t.Errorf("tess.out holds %d cells, the step produced %d", len(recs), cells)
	}

	// The checkpoint is exactly two files, and small: nothing in it scales
	// with the mesh (this one was 368 KB while it carried the meshes).
	entries, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var ckNames []string
	ckBytes := int64(0)
	for _, e := range entries {
		ckNames = append(ckNames, e.Name())
		sumFile("ckpt/"+e.Name(), filepath.Join(ckpt, e.Name()))
		if info, err := e.Info(); err == nil {
			ckBytes += info.Size()
		}
	}
	if !reflect.DeepEqual(ckNames, []string{"decomp.bin", "manifest.json"}) || ckBytes >= 8<<10 {
		t.Errorf("checkpoint dir holds %v in %d bytes, want decomp.bin and manifest.json under 8 KiB", ckNames, ckBytes)
	}
	// The session's own first-step decomposition is the RCB one above.
	if sect, err := diy.ReadAllBlocks(filepath.Join(ckpt, "decomp.bin")); err != nil || len(sect) != 1 || string(sect[0]) != string(rcbBytes) {
		t.Errorf("ckpt/decomp.bin does not wrap the RCB marshal (err=%v)", err)
	}
	res, err := Resume(cfg, ckpt, blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Steps() != 1 {
		t.Errorf("resumed at step %d, want 1", res.Steps())
	}

	for name, want := range formatGolden {
		if got[name] != want {
			t.Errorf("%-16s %s, want %s", name, got[name], want)
		}
	}
}
