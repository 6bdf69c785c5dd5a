package storage_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/storage"
)

// FuzzLoadCheckpoint covers the checkpoint directory, which a daemon is
// pointed at by a job spec: arbitrary manifest.json bytes give an error
// from Load, or a manifest that ResumeSession — under the configuration the
// manifest itself describes — turns into an error or a session at the
// manifest's step. Never a panic, and the two real checkpoints the corpus
// is seeded with (a grid and an RCB session's) must resume.
func FuzzLoadCheckpoint(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	ps := make([]diy.Particle, 200)
	for i := range ps {
		ps[i] = diy.Particle{ID: int64(i), Pos: geom.V(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8)}
	}
	var seeds [][]byte
	for _, kind := range []core.DecompKind{core.DecomposeRegular, core.DecomposeRCB} {
		cfg := core.Config{
			Domain:        geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8)),
			Periodic:      true,
			GhostSize:     2,
			Decomposition: kind,
		}
		sess, err := core.OpenSession(cfg, 4)
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
		raw, err := os.ReadFile(filepath.Join(seed, "manifest.json"))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
		f.Add(raw)
	}
	// The RCB manifest with its root cut moved onto the domain face, and
	// with its last cut dropped.
	for _, edit := range []func(m *storage.Manifest){
		func(m *storage.Manifest) { m.Cuts[0] = m.Domain[3] },
		func(m *storage.Manifest) { m.Cuts = m.Cuts[:len(m.Cuts)-1] },
	} {
		var m storage.Manifest
		if err := json.Unmarshal(seeds[1], &m); err != nil {
			f.Fatal(err)
		}
		edit(&m)
		raw, err := json.MarshalIndent(&m, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		valid := bytes.Equal(manifest, seeds[0]) || bytes.Equal(manifest, seeds[1])
		man, err := storage.Load(dir)
		if err != nil {
			if valid {
				t.Fatalf("a session's own checkpoint does not load: %v", err)
			}
			return
		}
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
				t.Fatalf("a session's own checkpoint does not resume: %v", err)
			}
			return
		}
		defer res.Close()
		if res.Steps() != man.Steps {
			t.Fatalf("resumed at step %d, manifest says %d", res.Steps(), man.Steps)
		}
	})
}
