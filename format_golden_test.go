package tess

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/wire"
)

// formatGolden pins the SHA-256 of every on-disk format on one fixed
// seeded input. The digests were produced by running this test at
// commit 314ef2e (PR 14), before the formats moved onto internal/wire,
// so a pass means the bytes written today are the bytes that build
// wrote — and, because the test also reads every artifact back, that
// files written by that build decode under this one. tess.out is the
// exception: its blocks are v2 since v2 became the one layout written, and
// its digest is that of the same blocks written in v2 by the commit
// before that switch. mesh-v1 blocks now comes from the test's own v1
// writer.
var formatGolden = map[string]string{
	"mesh-v1 blocks": "107ddcbf2b575c3d073454dab74dd311cd2e2125070d4b580af045c103733e54",
	"mesh-v2 blocks": "beefb7a9b7f3f11bfed2dddc0fb8e9e736373b19832ac4927bc9648ef506a9a4",
	"augmented":      "171bc858ceabe9fb1e3598016a8f4222817a1c42fbb12669eabd96726550e02f",
	"density grid":   "970c5fb4f1c001a1f1094401ad573edf1bac2cc07e0668d10c38256eb84c7497",
	"snap.bin":       "fb1645806f7f8147fcaf3714b13da6c013bf51f626f22327d0d59492d21fd171",
	"tess.out":       "6e198d489cb3b6d36b9bffde69fa01b6b8ac9455f3b9f549636c90f23a05b134",
	// Manifest version 3: the whole checkpoint, with the RCB session's
	// cuts; no wall-clock field, so it has a digest.
	"ckpt/manifest.json": "c2a71468a994bc2caa9ee091ca1354ba1ae3a949425080cb023bcbd4f734eb87",
}

// encodeV1 writes m in the v1 mesh layout, which DecodeBlockMesh still
// reads (meshio's EncodeV1 test writer): every float at full precision.
func encodeV1(m *BlockMesh) []byte {
	w := wire.NewWriter(0)
	vecs := func(vs ...Vec3) {
		for _, v := range vs {
			w.F64(v.X)
			w.F64(v.Y)
			w.F64(v.Z)
		}
	}
	w.U64(0x744d455348763101)
	vecs(m.Extents.Min, m.Extents.Max)
	w.U64(uint64(len(m.Verts)))
	vecs(m.Verts...)
	w.U64(uint64(m.NumCells()))
	vecs(m.Particles...)
	for _, id := range m.ParticleIDs {
		w.I64(id)
	}
	for _, s := range [][]float64{m.Volumes, m.Areas} {
		for _, v := range s {
			w.F64(v)
		}
	}
	for _, c := range m.Complete {
		var b byte
		if c {
			b = 1
		}
		w.U8(b)
	}
	for c := range m.FaceEnds {
		lo, hi := m.Faces(c)
		w.U32(uint32(hi - lo))
		for f := lo; f < hi; f++ {
			w.I64(m.Neighbors[f])
			w.U32(uint32(len(m.Loop(f))))
			for _, vi := range m.Loop(f) {
				w.U32(uint32(vi))
			}
		}
	}
	return w.Bytes()
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

	// Per-block mesh bytes, both versions, and what they decode to. Only
	// the test writes v1; it pins the mesh bit for bit.
	var v1, v2 [][]byte
	cells := 0
	for r, m := range out.Meshes {
		b1 := encodeV1(m)
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
		if !reflect.DeepEqual(d2.Particles, m.Particles) || !reflect.DeepEqual(d2.FaceEnds, m.FaceEnds) ||
			!reflect.DeepEqual(d2.Neighbors, m.Neighbors) || !reflect.DeepEqual(d2.LoopEnds, m.LoopEnds) ||
			!reflect.DeepEqual(d2.LoopVerts, m.LoopVerts) {
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

	// The checkpoint is one small file: nothing in it scales with the mesh
	// (this one was 368 KB while it carried the meshes), and the RCB
	// decomposition is in it as its cuts.
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
	if !reflect.DeepEqual(ckNames, []string{"manifest.json"}) || ckBytes >= 1<<10 {
		t.Errorf("checkpoint dir holds %v in %d bytes, want manifest.json under 1 KiB", ckNames, ckBytes)
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
