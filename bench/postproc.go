package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	tess "repro"
	"repro/internal/cosmo"
	"repro/internal/diy"
)

// postproc is the postproc-clustered workload: the paper's standalone mode.
// Every op is cold — snapshot file in, tess file and checkpoint out, voids
// found from the file read back — with the public default config.
type postproc struct {
	p      params
	n      int // particles
	L      float64
	blocks int
	cfg    tess.Config
	ps     []tess.Particle

	snapPath, tessPath, ckDir string

	// of the op that just ran
	kept, sites int64
	cells       int // records ReadTessFile returned
	voids       int
	srcStats    tess.SourceStats
	digest      [sha256.Size]byte // of the first op's tess file; every op must reproduce it
	haveDigest  bool
	outBytes    float64
	phases      phaseSamples
}

const (
	snapshotChunks = 16
	sourceWindow   = 4
	voidThreshold  = 2.0 // FindVoids minimum volume, in mean cell volumes
)

func newPostproc(p params) workload {
	w := &postproc{p: p, n: 24 * 24 * 24, L: 24, blocks: 8}
	if p.Tiny {
		w.n, w.L, w.blocks = 8*8*8, 8, 4
	}
	w.snapPath = filepath.Join(p.Dir, "snapshot.bin")
	w.tessPath = filepath.Join(p.Dir, "tess.out")
	w.ckDir = filepath.Join(p.Dir, "checkpoint")
	return w
}

func (w *postproc) Drivers() int { return 1 }

func (w *postproc) Setup() (time.Duration, error) {
	cp := cosmo.DefaultClusterParams()
	cp.Seed = w.p.Seed
	w.ps = tess.ParticlesFromPositions(cosmo.ClusteredPositions(w.n, w.L, cp))
	if err := tess.WriteSnapshot(w.snapPath, w.ps, snapshotChunks); err != nil {
		return 0, err
	}
	// The public defaults (hull pass on), particle-balanced blocks, and a
	// cull at a tenth of the mean cell volume (L^3/n = 1).
	w.cfg = tess.NewPeriodicConfig(w.L, tess.WithDecomposition(tess.DecomposeRCB))
	w.cfg.MinVolume = 0.1
	t0 := time.Now()
	if _, err := w.Op(0, 0); err != nil {
		return 0, err
	}
	first := time.Since(t0)
	if w.p.Traced {
		// Op 1 is the traced variant; run it once before the window too.
		if _, err := w.Op(0, 1); err != nil {
			return 0, err
		}
	}
	return first, nil
}

func (w *postproc) Op(d, i int) (int64, error) {
	tr := w.p.tracerFor(i)
	cfg := w.cfg
	if tr != nil {
		cfg.Recorder = tess.NewRecorder(w.blocks)
	}
	root := tr.begin("op", -1, i, 0)
	defer tr.end(root)
	span := func(name string) timing { return tr.start(name, root, i, 0) }

	tm := span("tess.OpenFileSource")
	src, err := tess.OpenFileSource(w.snapPath, sourceWindow)
	tm.stop()
	if err != nil {
		return 0, err
	}
	defer src.Close()
	tm = span("tess.Open")
	sess, err := tess.Open(cfg, w.blocks)
	tm.stop()
	if err != nil {
		return 0, err
	}
	defer sess.Close()

	tm = span("tess.Session.StepFrom")
	out, err := sess.StepFrom(src, tess.WithOutputPath(w.tessPath))
	stepWall := tm.stop()
	if err != nil {
		return 0, err
	}
	w.kept, w.sites = out.Counts.Kept, out.Counts.Sites
	if tr != nil {
		w.phases.add(out.Obs, stepWall)
		tr.adopt(out.Obs, tm.id, i)
	}
	tm = span("tess.Session.Checkpoint")
	err = sess.Checkpoint(w.ckDir)
	tm.stop()
	if err != nil {
		return 0, err
	}
	tm = span("tess.Session.Close")
	sess.Close() // always nil; the deferred Close above is then a no-op
	tm.stop()
	w.srcStats = src.Stats()

	tm = span("tess.ReadTessFile")
	recs, err := tess.ReadTessFile(w.tessPath)
	tm.stop()
	if err != nil {
		return 0, err
	}
	tm = span("tess.FindVoids")
	voids := tess.FindVoids(recs, voidThreshold)
	tm.stop()
	w.cells, w.voids = len(recs), len(voids)
	return w.sites, nil
}

func (w *postproc) Verify(d, i int) error {
	if int64(w.cells) != w.kept {
		return fmt.Errorf("tess file holds %d cells, the step kept %d", w.cells, w.kept)
	}
	if w.voids == 0 {
		return fmt.Errorf("no voids above %g mean cell volumes", voidThreshold)
	}
	raw, err := os.ReadFile(w.tessPath)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(raw)
	if !w.haveDigest {
		w.digest, w.haveDigest = digest, true
		w.outBytes = float64(len(raw)) / float64(w.kept)
	} else if digest != w.digest {
		return fmt.Errorf("tess file differs from the first op's")
	}
	return nil
}

// Check requires the last op's per-block file bytes to equal an inline
// Step over the same particles.
func (w *postproc) Check() []error {
	blocks, err := diy.ReadAllBlocks(w.tessPath)
	if err != nil {
		return []error{err}
	}
	sess, err := tess.Open(w.cfg, w.blocks)
	if err != nil {
		return []error{err}
	}
	defer sess.Close()
	out, err := sess.Step(w.ps)
	if err != nil {
		return []error{err}
	}
	if len(blocks) != len(out.Meshes) {
		return []error{fmt.Errorf("tess file holds %d blocks, inline Step %d", len(blocks), len(out.Meshes))}
	}
	inline, err := blockBytes(out)
	if err != nil {
		return []error{err}
	}
	var errs []error
	for b := range inline {
		if !bytes.Equal(inline[b], blocks[b]) {
			errs = append(errs, fmt.Errorf("block %d: streamed file bytes differ from an inline Step", b))
		}
	}
	return errs
}

func (w *postproc) OutBytesPerCell() float64 { return w.outBytes }

func (w *postproc) Layers(set func(string, float64, int)) error {
	tr := w.p.tr
	for _, m := range []struct{ metric, span string }{
		{"core.open_s", "tess.Open"},
		{"core.close_s", "tess.Session.Close"},
		{"core.step_s_p50", "tess.Session.StepFrom"},
		{"storage.checkpoint_save_s", "tess.Session.Checkpoint"},
		{"voids.read_tess_s", "tess.ReadTessFile"},
		{"voids.find_voids_s", "tess.FindVoids"},
	} {
		v, n := tr.p50(m.span)
		set(m.metric, v, n)
	}
	w.phases.report(set)
	// Every op's session is one step old: all of its sites are cold.
	set("core.warm_site_frac", 0, 1)
	set("storage.source_loads", float64(w.srcStats.Loads), 1)
	set("storage.peak_resident_particles", float64(w.srcStats.PeakResidentParticles), 1)
	ckBytes, err := dirBytes(w.ckDir)
	if err != nil {
		return err
	}
	set("storage.checkpoint_bytes", float64(ckBytes), 1)

	// storage: decode every chunk of the snapshot through a fresh source.
	st, err := os.Stat(w.snapPath)
	if err != nil {
		return err
	}
	src, err := tess.OpenFileSource(w.snapPath, sourceWindow)
	if err != nil {
		return err
	}
	defer src.Close()
	tm := tr.start("storage.FileSource.Chunk", -1, -1, 0)
	for c := 0; c < src.Chunks(); c++ {
		if _, err := src.Chunk(c); err != nil {
			tm.stop()
			return err
		}
		src.Release(c)
	}
	set("storage.chunk_load_mb_s", float64(st.Size())/1e6/tm.stop().Seconds(), int(st.Size()))

	// The session's result for the replay's input: an inline Step (Check
	// proved it equal to the streamed op).
	sess, err := tess.Open(w.cfg, w.blocks)
	if err != nil {
		return err
	}
	defer sess.Close()
	out, err := sess.Step(w.ps)
	if err != nil {
		return err
	}
	meshes, err := replayTess(w.p, w.ps, replaySpec{
		cfg: w.cfg, blocks: w.blocks,
		encodeV1: true, writePath: filepath.Join(w.p.Dir, "replay.out"), encodeV2: true,
	}, set)
	if err != nil {
		return err
	}
	if err := sameCells(meshes, out.Meshes); err != nil {
		return fmt.Errorf("layer replay differs from the session: %w", err)
	}
	return nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

func (w *postproc) Close() {}
