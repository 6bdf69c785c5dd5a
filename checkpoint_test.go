package tess

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// canonicalMesh reduces a step's output to the decomposition-independent
// oracle: the canonical merged mesh, in memory of its own.
func canonicalMesh(t *testing.T, out *Output, cfg Config) *BlockMesh {
	t.Helper()
	m, err := MergeCanonical(out.Meshes, cfg.Domain, cfg.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCrashResumeByteIdentity is the checkpoint/restart acceptance
// gate: a session checkpointed after every step is crashed by fault
// injection at step 3's compute phase, resumed from the on-disk
// checkpoint, and driven to the end — and every post-resume step is
// byte-identical to the uninterrupted baseline's, across block and worker
// counts. Grid rows compare the canonical merged mesh. RCB rows compare
// every block's raw mesh, which changes with the decomposition, so they
// also prove the resumed session rebuilt the very decomposition its
// first step cut.
func TestCrashResumeByteIdentity(t *testing.T) {
	const steps = 4
	const crashAt = 3
	for _, rcb := range []bool{false, true} {
		for _, blocks := range []int{2, 8} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("blocks=%d/workers=%d", blocks, workers)
				opts := []Option{WithGhostSize(3), WithWorkers(workers)}
				if rcb {
					name = "rcb/" + name
					opts = append(opts, WithDecomposition(DecomposeRCB))
				}
				t.Run(name, func(t *testing.T) {
					cfg := NewPeriodicConfig(8, opts...)
					oracle := func(out *Output) []*BlockMesh {
						if !rcb {
							return []*BlockMesh{canonicalMesh(t, out, cfg)}
						}
						return out.Clone().Meshes
					}

					// Uninterrupted baseline.
					base, err := Open(cfg, blocks)
					if err != nil {
						t.Fatal(err)
					}
					defer base.Close()
					want := make([][]*BlockMesh, steps+1)
					for s := 1; s <= steps; s++ {
						out, err := base.Step(testParticles(300+int64(s), 8, 8))
						if err != nil {
							t.Fatal(err)
						}
						want[s] = oracle(out)
					}

					// Checkpointing run, crashed at step crashAt. Fault
					// checkpoints accumulate 4 per session step; "compute" is
					// the 2nd checkpoint of a step.
					dir := filepath.Join(t.TempDir(), "ck")
					crashCfg := cfg
					crashCfg.StallTimeout = 10 * time.Second
					crashCfg.Faults = &FaultPlan{Seed: 5, CrashRank: 0, CrashStep: (crashAt-1)*4 + 2}
					victim, err := Open(crashCfg, blocks)
					if err != nil {
						t.Fatal(err)
					}
					defer victim.Close()
					for s := 1; s < crashAt; s++ {
						if _, err := victim.Step(testParticles(300+int64(s), 8, 8)); err != nil {
							t.Fatalf("pre-crash step %d: %v", s, err)
						}
						if err := victim.Checkpoint(dir); err != nil {
							t.Fatalf("pre-crash checkpoint %d: %v", s, err)
						}
					}
					if _, err := victim.Step(testParticles(300+crashAt, 8, 8)); err == nil {
						t.Fatal("step survived the injected crash")
					}
					if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
						t.Fatalf("no committed checkpoint after the crash: %v", err)
					}

					// Resume and replay the remaining steps (fresh config, no
					// fault plan — the operator restarting the host process).
					res, err := Resume(cfg, dir, blocks)
					if err != nil {
						t.Fatal(err)
					}
					defer res.Close()
					if res.Steps() != crashAt-1 {
						t.Fatalf("resumed at step %d, want %d", res.Steps(), crashAt-1)
					}
					for s := crashAt; s <= steps; s++ {
						out, err := res.Step(testParticles(300+int64(s), 8, 8))
						if err != nil {
							t.Fatalf("post-resume step %d: %v", s, err)
						}
						if err := res.Checkpoint(dir); err != nil {
							t.Fatalf("post-resume checkpoint %d: %v", s, err)
						}
						if got := oracle(out); !reflect.DeepEqual(got, want[s]) {
							t.Fatalf("step %d differs after resume", s)
						}
					}
					if res.Steps() != steps {
						t.Errorf("Steps() = %d after replay, want %d", res.Steps(), steps)
					}
				})
			}
		}
	}
}

// TestExplicitCheckpointResume covers a Checkpoint call without fault
// injection: warm/cold counters and the step count survive the round
// trip.
func TestExplicitCheckpointResume(t *testing.T) {
	cfg := NewPeriodicConfig(8, WithGhostSize(3))
	sess, err := Open(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dir := filepath.Join(t.TempDir(), "ck")
	if err := sess.Checkpoint(dir); err == nil {
		t.Fatal("checkpoint before the first step accepted")
	}
	for s := 1; s <= 2; s++ {
		if _, err := sess.Step(testParticles(400+int64(s), 8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	warm, cold := sess.WarmStats()

	res, err := Resume(cfg, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Steps() != 2 {
		t.Fatalf("resumed Steps() = %d, want 2", res.Steps())
	}
	if w, c := res.WarmStats(); w != warm || c != cold {
		t.Errorf("warm/cold %d/%d after resume, want %d/%d", w, c, warm, cold)
	}
	out, err := res.Step(testParticles(403, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	// The classifier's position memory is not checkpointed: the first
	// resumed step counts every site cold, on top of continuous counters.
	if w, c := res.WarmStats(); w != warm || c != cold+8*8*8 {
		t.Errorf("warm/cold %d/%d after the first resumed step, want %d/%d", w, c, warm, cold+8*8*8)
	}
	want, err := sess.Step(testParticles(403, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonicalMesh(t, out, cfg), canonicalMesh(t, want, cfg)) {
		t.Error("step 3 diverges between resumed and original session")
	}
}

// TestCheckpointSizeFollowsBlocksNotMesh: a regular-grid session's
// checkpoint is one file, manifest.json, at 8^3 and 16^3 particles alike,
// the two manifests apart only in the digits of their site counters.
func TestCheckpointSizeFollowsBlocksNotMesh(t *testing.T) {
	cfg := NewPeriodicConfig(16, WithGhostSize(3))
	manifests := map[int][]byte{}
	for _, n := range []int{8, 16} {
		sess, err := Open(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Step(testParticles(450, n, 16)); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "ck")
		if err := sess.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "manifest.json" {
			t.Fatalf("%d^3: checkpoint holds %v, want manifest.json alone", n, entries)
		}
		if manifests[n], err = os.ReadFile(filepath.Join(dir, "manifest.json")); err != nil {
			t.Fatal(err)
		}
	}
	// 128 against 1024 cold sites per block: one digit per block.
	if d := len(manifests[16]) - len(manifests[8]); d != 4 {
		t.Errorf("manifest grew by %d bytes from 8^3 to 16^3 particles, want the 4 counter digits", d)
	}
}

// TestResumeValidation: a checkpoint must not silently resume under a
// config that would have produced different output.
func TestResumeValidation(t *testing.T) {
	cfg := NewPeriodicConfig(8, WithGhostSize(3))
	sess, err := Open(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(testParticles(420, 8, 8)); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ck")
	if err := sess.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	if _, err := Resume(NewPeriodicConfig(8, WithGhostSize(4)), dir, 2); err == nil {
		t.Error("ghost-size mismatch accepted")
	}
	if _, err := Resume(NewPeriodicConfig(10, WithGhostSize(3)), dir, 2); err == nil {
		t.Error("domain mismatch accepted")
	}
	if _, err := Resume(NewPeriodicConfig(8, WithGhostSize(3), WithDecomposition(DecomposeRCB)), dir, 2); err == nil {
		t.Error("decomposition-kind mismatch accepted")
	}
	if _, err := Resume(cfg, filepath.Join(dir, "nope"), 2); err == nil {
		t.Error("missing checkpoint dir accepted")
	}

	if _, err := Resume(cfg, dir, 4); err == nil || !strings.Contains(err.Error(), "blocks 4 does not match checkpoint 2") {
		t.Errorf("block-count mismatch: %v", err)
	}

	// A manifest that parses but lies is an error naming the lie, not a
	// session at step -3 or one that silently dropped its counters; and the
	// previous format version is refused by number, not migrated.
	manifest := filepath.Join(dir, "manifest.json")
	valid, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(valid, &fields); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, key, value, reason string }{
		{"negative steps", "steps", `-3`, "-3 steps"},
		{"a counter too many", "warm_sites", `[0, 0, 7]`, "warm_sites holds 3 counters for 2 blocks"},
		{"negative counter", "cold_sites", `[250, -1]`, "cold_sites[1] = -1"},
		{"unknown decomposition kind", "decomp", `"octree"`, `"octree"`},
		{"non-finite ghost", "ghost", `1e999`, "ghost"},
		{"version 1", "version", `1`, "version 1"},
		{"version 2", "version", `2`, "version 2"},
	} {
		edited := maps.Clone(fields)
		edited[tc.key] = json.RawMessage(tc.value)
		bad, err := json.Marshal(edited)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, err := Resume(cfg, dir, 2); err == nil {
			res.Close()
			t.Errorf("%s: resumed at step %d", tc.name, res.Steps())
		} else if !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: Resume = %v, want an error mentioning %q", tc.name, err, tc.reason)
		}
	}
	if err := os.WriteFile(manifest, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := Resume(cfg, dir, 2); err != nil {
		t.Errorf("the restored manifest does not resume: %v", err)
	} else {
		res.Close()
	}
}

// TestResumeCorruptDecomposition: an RCB checkpoint's cuts are outside
// input. Cuts outside the box they split, on its face, or too few are
// refused by Resume — a returned error, not a panic, so a daemon can fall
// back to a fresh start. Cuts in another order that still fit their boxes
// are another RCB of the same domain at the same ghost, which is all a
// manifest can name: the resumed step then tessellates the same particles
// completely, and its canonical mesh is the uninterrupted session's.
func TestResumeCorruptDecomposition(t *testing.T) {
	cfg := NewPeriodicConfig(8, WithGhostSize(3), WithDecomposition(DecomposeRCB))
	sess, err := Open(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(testParticles(440, 8, 8)); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ck")
	if err := sess.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	next := testParticles(441, 8, 8)
	out, err := sess.Step(next)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalMesh(t, out, cfg)

	manifest := filepath.Join(dir, "manifest.json")
	valid, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(valid, &fields); err != nil {
		t.Fatal(err)
	}
	var cuts []float64
	if err := json.Unmarshal(fields["cuts"], &cuts); err != nil || len(cuts) != 3 {
		t.Fatalf("a 4-block RCB manifest holds cuts %v (err %v), want 3", cuts, err)
	}
	// The cube's root cuts x; both of its children then cut y.
	for _, tc := range []struct {
		name   string
		edit   func(c []float64) []float64
		reason string // empty: the edit may resume
	}{
		{"outside its box", func(c []float64) []float64 { c[0] = 9; return c }, "cut 0 at 9 is not inside"},
		{"on its box face", func(c []float64) []float64 { c[1] = 0; return c }, "cut 1 at 0 is not inside"},
		{"too few", func(c []float64) []float64 { return c[:2] }, "2 cuts for 4 rcb blocks"},
		{"too many", func(c []float64) []float64 { return append(c, 4) }, "4 cuts for 4 rcb blocks"},
		{"children swapped", func(c []float64) []float64 { c[1], c[2] = c[2], c[1]; return c }, ""},
		{"root and child swapped", func(c []float64) []float64 { c[0], c[1] = c[1], c[0]; return c }, ""},
	} {
		edited := maps.Clone(fields)
		if edited["cuts"], err = json.Marshal(tc.edit(slices.Clone(cuts))); err != nil {
			t.Fatal(err)
		}
		bad, err := json.Marshal(edited)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Resume(cfg, dir, 4)
		if err != nil {
			if tc.reason == "" || !strings.Contains(err.Error(), tc.reason) {
				t.Errorf("%s: Resume = %v, want an error mentioning %q", tc.name, err, tc.reason)
			}
			continue
		}
		if tc.reason != "" {
			t.Errorf("%s: resumed, want an error mentioning %q", tc.name, tc.reason)
		}
		got, err := res.Step(next)
		res.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Counts.Incomplete != 0 || !reflect.DeepEqual(canonicalMesh(t, got, cfg), want) {
			t.Errorf("%s: resumed to a different mesh (%d incomplete cells)", tc.name, got.Counts.Incomplete)
		}
	}
}

// TestStepFromFileSourceMatchesInline is the out-of-core acceptance
// gate: a quarter-window FileSource produces per-block bytes identical
// to the inline path while its accounting proves the full particle set
// was never staged at once.
func TestStepFromFileSourceMatchesInline(t *testing.T) {
	ps := testParticles(430, 10, 8) // 1000 particles
	const chunks = 8
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := WriteSnapshot(path, ps, chunks); err != nil {
		t.Fatal(err)
	}
	cfg := NewPeriodicConfig(8, WithGhostSize(3))

	inline, err := Open(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer inline.Close()
	want, err := inline.Step(ps)
	if err != nil {
		t.Fatal(err)
	}

	src, err := OpenFileSource(path, chunks/4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	streamed, err := Open(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer streamed.Close()
	got, err := streamed.StepFrom(src)
	if err != nil {
		t.Fatal(err)
	}

	if got.Counts != want.Counts {
		t.Fatalf("counts %+v, want %+v", got.Counts, want.Counts)
	}
	for r := range want.Meshes {
		if !reflect.DeepEqual(got.Meshes[r], want.Meshes[r]) {
			t.Fatalf("block %d differs between FileSource and inline step", r)
		}
	}

	st := src.Stats()
	if st.TotalParticles != len(ps) {
		t.Fatalf("TotalParticles = %d, want %d", st.TotalParticles, len(ps))
	}
	if st.PeakResidentParticles >= st.TotalParticles {
		t.Errorf("peak resident %d of %d particles — the window never evicted",
			st.PeakResidentParticles, st.TotalParticles)
	}
	if st.PeakResidentChunks > chunks/4 {
		t.Errorf("peak resident chunks %d exceeds window %d", st.PeakResidentChunks, chunks/4)
	}
	if st.Loads != chunks {
		t.Errorf("Loads = %d, want %d", st.Loads, chunks)
	}
}
