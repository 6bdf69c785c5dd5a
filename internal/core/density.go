package core

import (
	"math"
	"runtime/debug"
	"time"

	"repro/internal/comm"
	"repro/internal/delaunay"
	"repro/internal/density"
	"repro/internal/diy"
	"repro/internal/dtfe"
	"repro/internal/geom"
	"repro/internal/obs"
)

// countTriangulation adds one build's counts to rank 0 of rec.
func countTriangulation(rec *obs.Recorder, st delaunay.Stats, prefetched bool) {
	var pre int64
	if prefetched {
		pre = 1
	}
	rec.Count(0, obs.CounterDelaunayPoints, st.Points)
	rec.Count(0, obs.CounterDelaunayTetsCreated, st.TetsCreated)
	rec.Count(0, obs.CounterDelaunayPeakSlots, st.PeakSlots)
	rec.Count(0, obs.CounterDelaunayWalkSteps, st.WalkSteps)
	rec.Count(0, obs.CounterDelaunayInSphere, st.InSphereTests)
	rec.Count(0, obs.CounterDensityPrefetched, pre)
}

// prefetch is a density triangulation that Step runs on a goroutine of its
// own, over s.densPts on s.dens, for the StepDensity expected to follow.
// The goroutine writes start, end and err before it closes done, and
// touches neither the recorder nor anything else of the session.
type prefetch struct {
	done       chan struct{}
	start, end time.Time
	err        error
}

// prefetchBuild is the prefetched build; tests swap it to make the build
// panic.
var prefetchBuild = func(p *density.Pipeline, pts []geom.Vec3) error { return p.Triangulate(pts, nil) }

// startPrefetch copies the positions of particles, which the step has
// validated, and starts their triangulation on the session's density
// pipeline. A session that never ran StepDensity has no pipeline and
// starts nothing.
func (s *Session) startPrefetch(particles []diy.Particle) {
	if s.dens == nil {
		return
	}
	s.densPts = s.densPts[:0]
	for _, p := range particles {
		s.densPts = append(s.densPts, p.Pos)
	}
	pf := &prefetch{done: make(chan struct{})}
	pipe, pts := s.dens, s.densPts
	go func() {
		defer close(pf.done)
		pf.start = time.Now()
		// The goroutine is outside comm.World.Run's containment: a panic
		// comes back as rank 0's structured error instead.
		defer func() {
			pf.end = time.Now()
			if v := recover(); v != nil {
				pf.err = &comm.RankError{Rank: 0, Value: v, Stack: debug.Stack()}
			}
		}()
		pf.err = prefetchBuild(pipe, pts)
	}()
	s.pf = pf
}

// joinPrefetch waits for the build a Step started, if one is pending or
// unclaimed, and hands it over; afterwards the session has none.
func (s *Session) joinPrefetch() *prefetch {
	pf := s.pf
	if pf != nil {
		<-pf.done
		s.pf = nil
	}
	return pf
}

// samePositions reports whether pts holds the positions of ps, bit for bit
// and in order.
func samePositions(pts []geom.Vec3, ps []diy.Particle) bool {
	if len(pts) != len(ps) {
		return false
	}
	for i, p := range ps {
		q := pts[i]
		if math.Float64bits(p.Pos.X) != math.Float64bits(q.X) ||
			math.Float64bits(p.Pos.Y) != math.Float64bits(q.Y) ||
			math.Float64bits(p.Pos.Z) != math.Float64bits(q.Z) {
			return false
		}
	}
	return true
}

// StepDensity runs the streaming density pipeline over one snapshot's
// particles through the session's ranks: rank 0 triangulates (phase
// "triangulate"), every rank interpolates a contiguous grid slab with its
// worker share (phase "interpolate"), and the statistics/spectrum
// reduction (phase "spectrum") runs after the ranks join. The pipeline is
// retained across steps — triangulation scratch, estimator accumulators,
// and the sample grid all stay warm — and is rebuilt only when dc changes.
//
// Once a session has run StepDensity, each Step starts the triangulation
// of its particles on a goroutine of its own (see Session). StepDensity
// first waits for that build (phase "triangulate-wait") and uses it when
// the resolved dc equals the one the pipeline was built for and particles
// hold the positions the Step had, bit for bit and in order: rank 0 then
// skips its build, the trace shows the prefetched build as rank 0's
// "triangulate" span with its own start and end, and the
// density-prefetched counter reads 1. Otherwise rank 0 triangulates as it
// would without the Step. The two builds are the same call on the
// same pipeline and points, so the grid bytes do not depend on which ran.
//
// A zero dc.Box inherits the session's domain, periodicity, and ghost
// size as the periodic padding depth (ResolveDensity). Faults injected at
// the "density" checkpoint and stalls degrade exactly like tessellation
// steps: the world aborts, the error is structured, and the session turns
// terminal.
// So does a used prefetched build that failed or panicked: its error
// comes back as rank 0's (a panic as a *comm.RankError).
//
// Grid bytes are byte-identical to a direct density.Compute of the same
// particles under the same config, for any block or worker count: slab
// interpolation only reads the immutable triangulation through a
// deterministic locator (the decomposition-independence oracle pinned by
// the tests).
//
// The returned Result is a loan like Step's Output: its grid lives in the
// pipeline's retained buffer and is overwritten by the next StepDensity
// (a Step's triangulation leaves it alone). Clone it to keep it.
func (s *Session) StepDensity(particles []diy.Particle, dc density.Config) (*density.Result, error) {
	// Spans append to the current recorder epoch (no Reset here): a
	// snapshot's Step and StepDensity share one observation window, so the
	// trace shows tessellation and density phases side by side. No rank
	// runs here, so rank 0's slot has this goroutine as its one writer.
	rec := s.cfg.Recorder
	var pf *prefetch
	if s.pf != nil {
		sp := rec.Begin(0, obs.PhaseTriangulateWait)
		pf = s.joinPrefetch()
		rec.End(0, sp)
	}
	if err := s.usable(); err != nil {
		return nil, err
	}
	dc = s.cfg.ResolveDensity(dc)
	hit := pf != nil && sameDensityConfig(s.densCfg, dc) && samePositions(s.densPts, particles)
	var buildErr error
	if hit {
		buildErr = pf.err
		rec.RecordSpan(0, obs.PhaseTriangulate, pf.start, pf.end)
	}
	if pf != nil && pf.err != nil {
		s.dens = nil // a failed build may have left the pipeline half-built
	}
	if dc.Periodic {
		if err := checkInDomain(particles, dc.Box); err != nil {
			return nil, err
		}
	}
	if s.dens == nil || !sameDensityConfig(s.densCfg, dc) {
		p, err := density.New(dc)
		if err != nil {
			return nil, err
		}
		s.dens = p
		s.densCfg = dc
	}
	if !hit {
		s.densPts = s.densPts[:0]
		for _, p := range particles {
			s.densPts = append(s.densPts, p.Pos)
		}
	}
	if s.densStats == nil {
		s.densStats = make([]dtfe.SampleStats, s.numBlocks)
	}

	inj := s.cfg.injector
	n := dc.GridN
	blocks := s.numBlocks
	workers := EffectiveWorkers(s.cfg, s.w.Size())
	err := s.runRanks(func(rank int) error {
		inj.Checkpoint(rank, "density")
		if rank == 0 {
			err := buildErr
			if !hit {
				sp := rec.Begin(0, obs.PhaseTriangulate)
				err = s.dens.Triangulate(s.densPts, nil)
				rec.End(0, sp)
			}
			if err != nil {
				return err // runRanks' abort releases the peers in the barrier below
			}
			countTriangulation(rec, s.dens.TriangulationStats(), hit)
		}
		// Barrier gives every rank a happens-before edge on rank 0's
		// triangulation (or unwinds if it aborted).
		s.w.BarrierRank(rank)
		sp := rec.Begin(rank, obs.PhaseInterpolate)
		s.densStats[rank] = s.dens.InterpolateSlab(rank*n/blocks, (rank+1)*n/blocks, workers)
		rec.End(rank, sp)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var sample dtfe.SampleStats
	for _, st := range s.densStats {
		sample.Add(st)
	}
	// The reduction is serial; Run's join orders every rank's grid slab and
	// densStats slot before it, and rank 0's recorder slot has no other
	// writer after the world returned.
	sp := rec.Begin(0, obs.PhaseSpectrum)
	res := s.dens.Finalize(sample)
	rec.End(0, sp)
	if rec != nil {
		res.Obs = rec.Snapshot()
	}
	return res, nil
}

// ResolveDensity returns the density config a session over cfg runs for
// dc: a zero dc.Box inherits cfg's domain and periodicity, and then a
// non-positive dc.Pad the ghost size as the periodic padding depth. Both
// StepDensity and tessd's admission validate its result.
func (cfg Config) ResolveDensity(dc density.Config) density.Config {
	if dc.Box == (geom.Box{}) {
		dc.Box = cfg.Domain
		dc.Periodic = cfg.Periodic
		if dc.Pad <= 0 {
			dc.Pad = cfg.GhostSize
		}
	}
	return dc
}

// sameDensityConfig reports whether two density configs describe the same
// workload (so the retained pipeline can be reused).
func sameDensityConfig(a, b density.Config) bool {
	if a.GridN != b.GridN || a.Box != b.Box || a.Periodic != b.Periodic ||
		a.Pad != b.Pad || a.Spectrum != b.Spectrum || a.VoidThreshold != b.VoidThreshold {
		return false
	}
	if len(a.Percentiles) != len(b.Percentiles) {
		return false
	}
	for i := range a.Percentiles {
		if a.Percentiles[i] != b.Percentiles[i] {
			return false
		}
	}
	return true
}
