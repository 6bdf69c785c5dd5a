package storage_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/storage"
)

// v1Manifest is a manifest as the previous format version wrote it.
const v1Manifest = `{"version": 1, "steps": 1, "num_blocks": 2, "periodic": true,
	"domain": [0, 0, 0, 8, 8, 8], "ghost": 3, "decomp": "rcb", "rebalances": 0,
	"last_imbalance": 1.02, "warm_sites": [0, 0], "cold_sites": [100, 100]}`

// FuzzLoadCheckpoint covers the checkpoint directory, which a daemon is
// pointed at by a job spec: arbitrary manifest.json and decomp.bin bytes
// give an error from Load, or a checkpoint that ResumeSession — under the
// configuration the manifest itself describes — turns into an error or a
// session at the manifest's step. Never a panic, and the real checkpoint
// the corpus is seeded with must resume.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := core.Config{
		Domain:        geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8)),
		Periodic:      true,
		GhostSize:     3,
		Decomposition: core.DecomposeRCB,
	}
	rng := rand.New(rand.NewSource(7))
	ps := make([]diy.Particle, 200)
	for i := range ps {
		ps[i] = diy.Particle{ID: int64(i), Pos: geom.V(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8)}
	}
	sess, err := core.OpenSession(cfg, 2)
	if err != nil {
		f.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(ps); err != nil {
		f.Fatal(err)
	}
	seed := f.TempDir()
	if err := sess.Checkpoint(seed); err != nil {
		f.Fatal(err)
	}
	validManifest, err := os.ReadFile(filepath.Join(seed, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	validDecomp, err := os.ReadFile(filepath.Join(seed, "decomp.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validManifest, validDecomp)
	f.Add(validManifest[:len(validManifest)/2], validDecomp)
	f.Add([]byte(v1Manifest), validDecomp)

	f.Fuzz(func(t *testing.T, manifest, decomp []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "decomp.bin"), decomp, 0o644); err != nil {
			t.Fatal(err)
		}
		valid := bytes.Equal(manifest, validManifest) && bytes.Equal(decomp, validDecomp)
		ck, err := storage.Load(dir)
		if err != nil {
			if valid {
				t.Fatalf("the session's own checkpoint does not load: %v", err)
			}
			return
		}
		man := ck.Manifest
		own := core.Config{
			Domain: geom.Box{
				Min: geom.V(man.Domain[0], man.Domain[1], man.Domain[2]),
				Max: geom.V(man.Domain[3], man.Domain[4], man.Domain[5]),
			},
			Periodic:  man.Periodic,
			GhostSize: man.Ghost,
		}
		if man.Decomp == "rcb" {
			own.Decomposition = core.DecomposeRCB
		}
		res, err := core.ResumeSession(own, dir, man.NumBlocks)
		if err != nil {
			if valid {
				t.Fatalf("the session's own checkpoint does not resume: %v", err)
			}
			return
		}
		defer res.Close()
		if res.Steps() != man.Steps {
			t.Fatalf("resumed at step %d, manifest says %d", res.Steps(), man.Steps)
		}
	})
}
