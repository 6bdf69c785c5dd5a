package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	tess "repro"
	"repro/internal/delaunay"
	"repro/internal/density"
	"repro/internal/dtfe"
	"repro/internal/fft"
	"repro/internal/geom"
)

// densityWarm is the density-warm workload: per snapshot, Session.Step then
// Session.StepDensity — what the daemon's density job kind and `tess
// -density` do.
type densityWarm struct {
	warmSessions
	ng int
	dc tess.DensityConfig

	// digests[s] is the grid digest first seen for snapshot s; a revisit
	// must reproduce it.
	digests  map[int][sha256.Size]byte
	lastGrid []float64 // copy of the op's grid, hashed by Verify
	lastMass float64   // GridMass / TracerMass of the op that just ran
	sites    int64

	standalone *density.Pipeline // Check's single-process reference, warm afterwards
}

func newDensity(p params) workload {
	w := &densityWarm{ng: 16, dc: tess.DensityConfig{GridN: 32, Spectrum: true}, digests: map[int][sha256.Size]byte{}}
	if p.Tiny {
		w.ng, w.dc.GridN = 8, 16
	}
	w.p = p
	return w
}

func (w *densityWarm) Drivers() int { return 1 }

func (w *densityWarm) step(i int) (time.Duration, error) {
	sess, tr, snap := w.variant(i)
	t0 := time.Now()
	tm := tr.start("tess.Session.Step", -1, i, 0)
	out, err := sess.Step(snap)
	stepWall := tm.stop()
	if err != nil {
		return stepWall, err
	}
	w.sites = out.Counts.Sites
	if tr != nil {
		w.phases.add(out.Obs, stepWall)
	}
	tm = tr.start("tess.Session.StepDensity", -1, i, 0)
	res, err := sess.StepDensity(snap, w.dc)
	tm.stop()
	el := time.Since(t0)
	if err != nil {
		return el, err
	}
	// The recorder's epoch spans Step and StepDensity, so the density
	// result's snapshot carries both sets of phases.
	tr.adopt(res.Obs, tm.id, i)
	// Verify hashes the grid after the op; it gets a copy (~20 us for 32^3
	// samples) because the result is on loan until the next StepDensity.
	if len(w.lastGrid) != len(res.Grid) {
		w.lastGrid = make([]float64, len(res.Grid))
	}
	copy(w.lastGrid, res.Grid)
	w.lastMass = res.Stats.GridMass / res.Stats.TracerMass
	return el, nil
}

func (w *densityWarm) Setup() (time.Duration, error) {
	if err := w.open(w.ng, 4); err != nil {
		return 0, err
	}
	return w.warmUp(w.step)
}

func (w *densityWarm) Op(d, i int) (int64, error) {
	if _, err := w.step(i); err != nil {
		return 0, err
	}
	return w.sites, nil
}

func (w *densityWarm) Verify(d, i int) error {
	if math.Abs(w.lastMass-1) > 0.02 {
		return fmt.Errorf("grid mass / tracer mass = %.4f, want within 2%% of 1", w.lastMass)
	}
	digest := sha256.Sum256(tess.EncodeDensityGrid(w.lastGrid))
	if seen, ok := w.digests[w.lastSnap]; !ok {
		w.digests[w.lastSnap] = digest
	} else if seen != digest {
		return fmt.Errorf("snapshot %d revisited with a different density grid", w.lastSnap)
	}
	return nil
}

// oracleConfig is the standalone density config equivalent to what the
// session derives from a zero Box: its domain, periodicity, and ghost size
// as the padding depth.
func (w *densityWarm) oracleConfig() tess.DensityConfig {
	dc := w.dc
	dc.Box = w.cfg.Domain
	dc.Periodic = true
	dc.Pad = w.cfg.GhostSize
	return dc
}

func positions(ps []tess.Particle) []geom.Vec3 {
	pts := make([]geom.Vec3, len(ps))
	for i, p := range ps {
		pts[i] = p.Pos
	}
	return pts
}

// Check requires one snapshot's session grid to equal, byte for byte, a
// standalone single-process run of the density pipeline over the same
// particles — what tess.ComputeDensity does, on a pipeline the workload
// keeps: that cold run (~10x a warm one) then doubles as the warm-up of the
// traced run's density replay.
func (w *densityWarm) Check() []error {
	sess, snap := w.reference()
	res, err := sess.StepDensity(snap, w.dc)
	if err != nil {
		return []error{err}
	}
	if w.standalone, err = density.New(w.oracleConfig()); err != nil {
		return []error{err}
	}
	ref, err := w.standalone.Step(positions(snap), nil)
	if err != nil {
		return []error{err}
	}
	if !bytes.Equal(tess.EncodeDensityGrid(res.Grid), tess.EncodeDensityGrid(ref.Grid)) {
		return []error{fmt.Errorf("session density grid differs from the standalone pipeline's")}
	}
	return nil
}

// OutBytesPerCell: the product is the density grid, 8 bytes per sample.
func (w *densityWarm) OutBytesPerCell() float64 {
	n := w.dc.GridN
	return float64(8*n*n*n) / float64(w.ng*w.ng*w.ng)
}

func (w *densityWarm) Layers(set func(string, float64, int)) error {
	tr := w.p.tr
	v, n := tr.p50("tess.Open")
	set("core.open_s", v, n)
	v, n = tr.p50("tess.Session.Step")
	set("core.step_s_p50", v, n)
	v, n = tr.p50("tess.Session.StepDensity")
	set("core.step_density_s_p50", v, n)
	w.phases.report(set)
	set("core.warm_site_frac", w.warmSiteFrac(), 1)

	// The session's results for the replay's input.
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
	res, err := sess.StepDensity(snap, w.dc)
	if err != nil {
		return err
	}
	return w.replayDensity(snap, res, set)
}

// replayDensity re-enacts StepDensity on one thread: first through the
// density.Pipeline phases the session calls (on the standalone pipeline
// Check left warm), then through the layers the pipeline itself is built
// from (warmed by one untimed build of the neighbouring snapshot), because
// the op is warm.
func (w *densityWarm) replayDensity(snap []tess.Particle, want *tess.DensityResult, set func(string, float64, int)) error {
	tr := w.p.tr
	root := tr.begin("replay.density", -1, -1, 0)
	defer tr.end(root)
	span := func(name string) timing { return tr.start(name, root, -1, 0) }
	dc := w.oracleConfig()
	prev := positions(w.snaps[1])
	pts := positions(snap)
	n := dc.GridN

	pipe := w.standalone
	if pipe == nil {
		return fmt.Errorf("density replay: the oracle left no warm pipeline")
	}
	tm := span("density.Pipeline.Triangulate")
	err := pipe.Triangulate(pts, nil)
	set("density.triangulate_s", tm.stop().Seconds(), 1)
	if err != nil {
		return err
	}
	tm = span("density.Pipeline.InterpolateSlab")
	sample := pipe.InterpolateSlab(0, n, 1)
	set("density.interpolate_s", tm.stop().Seconds(), 1)
	tm = span("density.Pipeline.Finalize")
	res := pipe.Finalize(sample)
	set("density.finalize_s", tm.stop().Seconds(), 1)
	if !bytes.Equal(tess.EncodeDensityGrid(res.Grid), tess.EncodeDensityGrid(want.Grid)) {
		return fmt.Errorf("density replay grid differs from the session's")
	}

	// Below the pipeline: delaunay, dtfe, fft on the same padded point set.
	var builder delaunay.Builder
	var est dtfe.Estimator
	if _, err := builder.Build(padPeriodic(prev, dc)); err != nil {
		return err
	}
	padded := padPeriodic(pts, dc)
	tm = span("delaunay.Builder.Build")
	tri, err := builder.Build(padded)
	set("delaunay.build_s", tm.stop().Seconds(), 1)
	if err != nil {
		return err
	}
	set("delaunay.tets", float64(len(tri.Tets)), 1)
	if len(tri.Tets) != want.Tets {
		return fmt.Errorf("density replay built %d tets, the session %d", len(tri.Tets), want.Tets)
	}
	tm = span("dtfe.Estimator.Estimate")
	field, err := est.Estimate(tri, nil)
	set("dtfe.estimate_s", tm.stop().Seconds(), 1)
	if err != nil {
		return err
	}
	loc := tri.NewLocator(0)
	size := dc.Box.Size()
	got := make([]float64, n*n*n)
	var sampleErr error
	tm = span("dtfe.Field.SampleWith")
	for k := 0; k < n; k++ {
		z := dc.Box.Min.Z + (float64(k)+0.5)*size.Z/float64(n)
		for j := 0; j < n; j++ {
			y := dc.Box.Min.Y + (float64(j)+0.5)*size.Y/float64(n)
			for i := 0; i < n; i++ {
				x := dc.Box.Min.X + (float64(i)+0.5)*size.X/float64(n)
				d, err := field.SampleWith(loc, geom.V(x, y, z))
				if err != nil {
					sampleErr = err
				}
				got[(k*n+j)*n+i] = d
			}
		}
	}
	sampling := tm.stop()
	if sampleErr != nil {
		return fmt.Errorf("density replay sampling: %w", sampleErr)
	}
	if !bytes.Equal(tess.EncodeDensityGrid(got), tess.EncodeDensityGrid(want.Grid)) {
		return fmt.Errorf("density replay samples differ from the session's grid")
	}
	set("dtfe.sample_ns_per_pt", float64(sampling.Nanoseconds())/float64(n*n*n), n*n*n)

	g := fft.NewGrid3(32)
	for i := range g.Data {
		g.Data[i] = complex(want.Grid[i%len(want.Grid)], 0)
	}
	tm = span("fft.Forward3")
	fft.Forward3(g)
	set("fft.forward3_32_s", tm.stop().Seconds(), 1)
	return nil
}

// padPeriodic appends the periodic images within dc.Pad of the box, in the
// pipeline's own tracer-major, offset-minor order.
func padPeriodic(pts []geom.Vec3, dc tess.DensityConfig) []geom.Vec3 {
	size := dc.Box.Size()
	outer := dc.Box.Expand(dc.Pad)
	out := append([]geom.Vec3(nil), pts...)
	for _, pt := range pts {
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					img := pt.Add(geom.V(float64(dx)*size.X, float64(dy)*size.Y, float64(dz)*size.Z))
					if outer.Contains(img) {
						out = append(out, img)
					}
				}
			}
		}
	}
	return out
}

func (w *densityWarm) Close() { w.close() }
