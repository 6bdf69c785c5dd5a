package core

import (
	"fmt"

	"repro/internal/delaunay"
	"repro/internal/density"
	"repro/internal/diy"
	"repro/internal/dtfe"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Names of the triangulation counters StepDensity adds to rank 0 of
// Config.Recorder (delaunay.Stats of the step's Bowyer-Watson build).
// They are exact functions of the snapshot: InSphere tests per point and
// peak slots per tet say why the triangulate phase cost what it cost.
const (
	CounterDelaunayPoints      = "delaunay-points"
	CounterDelaunayTetsCreated = "delaunay-tets-created"
	CounterDelaunayPeakSlots   = "delaunay-peak-slots"
	CounterDelaunayWalkSteps   = "delaunay-walk-steps"
	CounterDelaunayInSphere    = "delaunay-insphere"
)

// countTriangulation adds one build's counts to rank 0 of rec.
func countTriangulation(rec *obs.Recorder, st delaunay.Stats) {
	addCounts(rec, 0,
		namedCount{CounterDelaunayPoints, st.Points},
		namedCount{CounterDelaunayTetsCreated, st.TetsCreated},
		namedCount{CounterDelaunayPeakSlots, st.PeakSlots},
		namedCount{CounterDelaunayWalkSteps, st.WalkSteps},
		namedCount{CounterDelaunayInSphere, st.InSphereTests},
	)
}

// StepDensity runs the streaming density pipeline over one snapshot's
// particles through the session's ranks: rank 0 triangulates (phase
// "triangulate"), every rank interpolates a contiguous grid slab with its
// worker share (phase "interpolate"), and the statistics/spectrum
// reduction (phase "spectrum") runs after the ranks join. The pipeline is
// retained across steps — triangulation scratch, estimator accumulators,
// and the sample grid all stay warm — and is rebuilt only when dc changes.
//
// A zero dc.Box inherits the session's domain, periodicity, and ghost
// size as the periodic padding depth. Faults injected at the "density"
// checkpoint and stalls degrade exactly like tessellation steps: the
// world aborts, the error is structured, and the session turns terminal.
//
// Grid bytes are byte-identical to a direct density.Compute of the same
// particles under the same config, for any block or worker count: slab
// interpolation only reads the immutable triangulation through a
// deterministic locator (the decomposition-independence oracle pinned by
// the tests).
//
// The returned Result is a loan like Step's Output: its grid lives in the
// pipeline's retained buffer and is overwritten by the next StepDensity.
// Clone it to keep it.
func (s *Session) StepDensity(particles []diy.Particle, dc density.Config) (*density.Result, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	if dc.Box == (geom.Box{}) {
		dc.Box = s.cfg.Domain
		dc.Periodic = s.cfg.Periodic
		if dc.Pad <= 0 {
			dc.Pad = s.cfg.GhostSize
		}
	}
	if dc.Periodic {
		for _, p := range particles {
			if !dc.Box.Contains(p.Pos) {
				return nil, fmt.Errorf("core: particle %d at %v outside periodic density box", p.ID, p.Pos)
			}
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
	s.densPts = s.densPts[:0]
	for _, p := range particles {
		s.densPts = append(s.densPts, p.Pos)
	}
	if s.densStats == nil {
		s.densStats = make([]dtfe.SampleStats, s.numBlocks)
	}

	// Spans append to the current recorder epoch (no Reset here): a
	// snapshot's Step and StepDensity share one observation window, so the
	// trace shows tessellation and density phases side by side.
	rec := s.cfg.Recorder
	inj := s.cfg.injector
	n := dc.GridN
	blocks := s.numBlocks
	workers := EffectiveWorkers(s.cfg, s.w.Size())
	err := s.runRanks(func(rank int) error {
		inj.Checkpoint(rank, "density")
		if rank == 0 {
			sp := rec.Begin(0, obs.PhaseTriangulate)
			err := s.dens.Triangulate(s.densPts, nil)
			rec.End(0, sp)
			if err != nil {
				return err // runRanks' abort releases the peers in the barrier below
			}
			countTriangulation(rec, s.dens.TriangulationStats())
		}
		// Barrier gives every rank a happens-before edge on rank 0's
		// triangulation (or unwinds if it aborted).
		s.w.BarrierRank(rank)
		sp := rec.Begin(rank, obs.PhaseInterpolate)
		s.densStats[rank] = s.dens.InterpolateSlab(rank*n/blocks, (rank+1)*n/blocks, workers)
		rec.End(rank, sp)
		s.w.BarrierRank(rank)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var sample dtfe.SampleStats
	for _, st := range s.densStats {
		sample.Add(st)
	}
	// The reduction is serial; Run's join makes the grid visible here, and
	// rank 0's recorder slot has no other writer after the world returned.
	sp := rec.Begin(0, obs.PhaseSpectrum)
	res := s.dens.Finalize(sample)
	rec.End(0, sp)
	if rec != nil {
		res.Obs = rec.Snapshot()
	}
	return res, nil
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
