package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	tess "repro"
	"repro/internal/nbody"
)

// simSnapshots evolves an ng^3 N-body run (initial conditions seeded by
// seed) `skip` steps off the lattice and captures the next `count`
// snapshots, one simulation step apart.
func simSnapshots(ng int, seed int64, skip, count int) ([][]tess.Particle, error) {
	cfg := nbody.DefaultConfig(ng)
	cfg.Cosmo.Seed = seed
	sim, err := nbody.New(cfg)
	if err != nil {
		return nil, err
	}
	var snaps [][]tess.Particle
	sim.Run(skip+count, func(s *nbody.Simulation) {
		if s.Step > skip {
			snaps = append(snaps, tess.ParticlesFromSim(s))
		}
	})
	return snaps, nil
}

// warmSessions is the state the two warm-session workloads share: the
// snapshots, visited ping-pong so every step is a small displacement, and
// one session per variant — [0] untraced, [1] carrying a tess.Recorder
// (traced runs only). Each variant walks the snapshots on its own counter,
// so both see one-step displacements.
type warmSessions struct {
	p      params
	cfg    tess.Config
	blocks int
	snaps  [][]tess.Particle
	sess   [2]*tess.Session
	next   [2]int
	// lastSnap is the index of the snapshot variant handed out last.
	lastSnap int

	warm0, cold0 int64 // WarmStats of sess[0] when the window opened
	phases       phaseSamples
}

const (
	snapshotSkip  = 10 // simulation steps before the first snapshot
	snapshotCount = 8
	warmupOps     = 2 // untimed-as-ops steps after the first op
)

// open generates the snapshots and opens the session(s).
func (ws *warmSessions) open(ng, blocks int) error {
	var err error
	if ws.snaps, err = simSnapshots(ng, ws.p.Seed, snapshotSkip, snapshotCount); err != nil {
		return err
	}
	ws.blocks = blocks
	ws.cfg = tess.NewPeriodicConfig(float64(ng))
	ws.cfg.HullPass = false
	tm := ws.p.tr.start("tess.Open", -1, -1, 0)
	ws.sess[0], err = tess.Open(ws.cfg, blocks)
	tm.stop()
	if err != nil {
		return err
	}
	if ws.p.Traced {
		cfg := ws.cfg
		cfg.Recorder = tess.NewRecorder(blocks)
		if ws.sess[1], err = tess.Open(cfg, blocks); err != nil {
			return err
		}
	}
	return nil
}

// variant picks the session of op i and the tracer its spans go to (nil
// for an untraced op), and advances that variant's snapshot walk.
func (ws *warmSessions) variant(i int) (sess *tess.Session, tr *tracer, snap []tess.Particle) {
	v := 0
	if tr = ws.p.tracerFor(i); tr != nil {
		v = 1
	}
	ws.lastSnap = pingPong(ws.next[v], len(ws.snaps))
	ws.next[v]++
	return ws.sess[v], tr, ws.snaps[ws.lastSnap]
}

// reference is what the oracles and the layer replay run on after the
// window: the untraced session and always the same snapshot, so the counts
// they report do not depend on how many ops the window held.
func (ws *warmSessions) reference() (*tess.Session, []tess.Particle) {
	return ws.sess[0], ws.snaps[0]
}

// warmUp runs the first op and the warm-up ops through step and opens the
// window. In a traced run the ops alternate variants, so it runs enough of
// them for both sessions to get their first step and their warm-up steps.
func (ws *warmSessions) warmUp(step func(i int) (time.Duration, error)) (first time.Duration, err error) {
	n := warmupOps
	if ws.p.Traced {
		n = 2*warmupOps + 1
	}
	for i := 0; i <= n; i++ {
		d, err := step(i)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = d
		}
	}
	ws.warm0, ws.cold0 = ws.sess[0].WarmStats()
	return first, nil
}

func (ws *warmSessions) warmSiteFrac() float64 {
	warm, cold := ws.sess[0].WarmStats()
	warm, cold = warm-ws.warm0, cold-ws.cold0
	if warm+cold == 0 {
		return 0
	}
	return float64(warm) / float64(warm+cold)
}

func (ws *warmSessions) close() {
	for _, s := range ws.sess {
		if s != nil {
			s.Close() // Session.Close always returns nil
		}
	}
}

// insitu is the insitu-uniform workload: one warm Session.Step per op.
type insitu struct {
	warmSessions
	ng       int
	counts   tess.CellCounts // of the op that just ran
	outBytes float64
}

func newInsitu(p params) workload {
	w := &insitu{ng: 32}
	if p.Tiny {
		w.ng = 8
	}
	w.p = p
	return w
}

func (w *insitu) Drivers() int { return 1 }

func (w *insitu) step(i int) (time.Duration, error) {
	sess, tr, snap := w.variant(i)
	tm := tr.start("tess.Session.Step", -1, i, 0)
	out, err := sess.Step(snap)
	el := tm.stop()
	if err != nil {
		return el, err
	}
	w.counts = out.Counts
	if tr != nil {
		w.phases.add(out.Obs, el)
		tr.adopt(out.Obs, tm.id, i)
	}
	return el, nil
}

func (w *insitu) Setup() (time.Duration, error) {
	if err := w.open(w.ng, 4); err != nil {
		return 0, err
	}
	return w.warmUp(w.step)
}

func (w *insitu) Op(d, i int) (int64, error) {
	if _, err := w.step(i); err != nil {
		return 0, err
	}
	return w.counts.Sites, nil
}

func (w *insitu) Verify(d, i int) error {
	n := int64(w.ng * w.ng * w.ng)
	if w.counts.Kept != n || w.counts.Incomplete != 0 {
		return fmt.Errorf("kept %d of %d cells, %d incomplete", w.counts.Kept, n, w.counts.Incomplete)
	}
	return nil
}

// volumeTol is the relative tolerance of the decomposition-independence
// oracle: the one tess.CompareAccuracy (the paper's Table I "matching cells")
// defaults to. It cannot be the 1e-9 of the volume sum: the clipping kernel
// treats a vertex within 1e-9 of its initial box's size of a plane as on it,
// and that box grows with the block, so a cut shallower than that is made
// under one decomposition and skipped under another. Over seeds 1-150 the
// slivers this leaves moved a cell by up to 1.5e-8 of its volume (seed 109;
// above 1e-11 on one seed in six, below 3e-14 on the rest).
const volumeTol = 1e-6

// Check steps the warm session once more and requires of that step: its
// volumes fill the box; its blocks equal, byte for byte, a cold tess.Run of
// the same snapshot (warm == cold); and a cold Run over twice the blocks
// gives every cell the same volume to volumeTol (decomposition independence).
//
// The last check is per cell rather than the SHA-256 of the canonical merge
// because tess.MergeCanonical rejects these inputs: on N-body snapshots it
// fails with "degenerate vertex (plane determinant 0)" for roughly one 16^3
// snapshot in seven and nearly every 32^3 one (README, "Known baselines").
func (w *insitu) Check() []error {
	var errs []error
	sess, snap := w.reference()
	out, err := sess.Step(snap)
	if err != nil {
		return []error{err}
	}
	L := float64(w.ng)
	var vol float64
	volumes := make(map[int64]float64, len(snap))
	for _, c := range out.Summaries() {
		vol += c.Volume
		volumes[c.ID] = c.Volume
	}
	if want := L * L * L; math.Abs(vol-want) > 1e-9*want {
		errs = append(errs, fmt.Errorf("cell volumes sum to %.12g, want %.12g", vol, want))
	}
	warm, err := blockBytes(out)
	if err != nil {
		return append(errs, err)
	}
	var total int
	for _, b := range warm {
		total += len(b)
	}
	w.outBytes = float64(total) / float64(out.Counts.Kept)

	cold, err := tess.Run(w.cfg, snap, w.blocks)
	if err != nil {
		return append(errs, err)
	}
	ref, err := blockBytes(cold)
	if err != nil {
		return append(errs, err)
	}
	for b := range warm {
		if !bytes.Equal(warm[b], ref[b]) {
			errs = append(errs, fmt.Errorf("block %d: warm step's bytes differ from a cold Run's", b))
		}
	}

	finer, err := tess.Run(w.cfg, snap, 2*w.blocks)
	if err != nil {
		return append(errs, err)
	}
	cells := finer.Summaries()
	if len(cells) != len(volumes) {
		errs = append(errs, fmt.Errorf("%d-block Run kept %d cells, the %d-block session %d", 2*w.blocks, len(cells), w.blocks, len(volumes)))
	}
	for _, c := range cells {
		if v, ok := volumes[c.ID]; !ok || math.Abs(v-c.Volume) > volumeTol*v {
			errs = append(errs, fmt.Errorf("cell %d: volume %v over %d blocks, %v over %d", c.ID, c.Volume, 2*w.blocks, v, w.blocks))
			break
		}
	}
	return errs
}

// blockBytes encodes every block of a step in the v1 output format.
func blockBytes(out *tess.Output) ([][]byte, error) {
	enc := make([][]byte, len(out.Meshes))
	for b, m := range out.Meshes {
		var err error
		if enc[b], err = m.Encode(); err != nil {
			return nil, err
		}
	}
	return enc, nil
}

func (w *insitu) OutBytesPerCell() float64 { return w.outBytes }

func (w *insitu) Layers(set func(string, float64, int)) error {
	v, n := w.p.tr.p50("tess.Open")
	set("core.open_s", v, n)
	v, n = w.p.tr.p50("tess.Session.Step")
	set("core.step_s_p50", v, n)
	w.phases.report(set)
	set("core.warm_site_frac", w.warmSiteFrac(), 1)

	sess, snap := w.reference()
	out, err := sess.Step(snap)
	if err != nil {
		return err
	}
	meshes, err := replayTess(w.p, snap, replaySpec{cfg: w.cfg, blocks: w.blocks, warm: true}, set)
	if err != nil {
		return err
	}
	if err := sameCells(meshes, out.Meshes); err != nil {
		return fmt.Errorf("layer replay differs from the session: %w", err)
	}
	return nil
}

func (w *insitu) Close() { w.close() }
