package tess

import (
	"time"

	"repro/internal/core"
)

// Session is a persistent tessellation pipeline for repeated passes over
// the same domain decomposition — the in situ pattern of tessellating
// many snapshots of one evolving simulation. Open builds the
// decomposition, the communication world, and all per-rank exchange,
// index, scratch, and output buffers once; every Step then reuses them,
// so at steady state a step allocates a small fraction of what a
// standalone Run does while producing byte-identical output (pinned by
// tests across block counts, worker counts, and warm versus cold
// sessions).
//
// The *Output returned by Step is a loan valid until the next Step;
// deep-copy it with Output.Clone to keep it longer. After an aborted step
// (rank failure, injected crash, watchdog stall) the session is
// terminally failed: every later Step returns the original abort error
// immediately, without hanging. A Session is driven from one goroutine;
// Close is idempotent.
type Session struct {
	s *core.Session
}

// Open starts a persistent tessellation session over numBlocks blocks.
// cfg plays the same role as in Run; cfg.OutputPath, if set, is the
// default destination every Step writes to (use the WithOutputPath step
// option for per-step paths).
func Open(cfg Config, numBlocks int) (*Session, error) {
	s, err := core.OpenSession(cfg, numBlocks)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Step runs one tessellation pass over particles through the session's
// retained state, adjusted by per-step options (WithOutputPath,
// WithCheckpointEvery). The result is byte-identical to
// Run(cfg, particles, numBlocks) and is loaned until the next Step.
//
//tess:loaned
func (s *Session) Step(particles []Particle, opts ...StepOption) (*Output, error) {
	return s.StepFrom(NewSliceSource(particles), opts...)
}

// StepFrom is Step over a snapshot Source instead of an inline slice:
// the source's chunks are loaded, partitioned, and released one at a
// time, so a windowed FileSource never stages the whole snapshot while
// producing output byte-identical to an inline Step over the same
// particles. Every Step variant routes through this path.
//
//tess:loaned
func (s *Session) StepFrom(src Source, opts ...StepOption) (*Output, error) {
	return s.s.StepSource(src, resolveStepOpts(s.s.DefaultOutputPath(), opts))
}

// Checkpoint persists the session's resumable state into dir — the
// decomposition, step counter, warm/cold baseline, and the last
// completed step's per-block meshes in the compact v2 format — for a
// later Resume. It must be called between steps (not before the first)
// and commits atomically: a crash mid-checkpoint leaves the previous
// complete checkpoint, or none. WithCheckpointEvery automates it.
func (s *Session) Checkpoint(dir string) error { return s.s.Checkpoint(dir) }

// StepDensity runs the streaming density pipeline over one snapshot's
// particles through the session's ranks: triangulate (rank 0),
// interpolate (grid slabs spread across ranks and their worker shares),
// then the statistics/spectrum reduction — each phase recorded under the
// session's Recorder ("triangulate"/"interpolate"/"spectrum"). The grid
// bytes are identical to ComputeDensity on the same particles for any
// block/worker count. The Result is loaned until the next StepDensity;
// Clone it to keep it.
//
//tess:loaned
func (s *Session) StepDensity(particles []Particle, dc DensityConfig) (*DensityResult, error) {
	return s.s.StepDensity(particles, dc)
}

// DensitySteps returns the number of completed density-pipeline steps.
func (s *Session) DensitySteps() int { return s.s.DensitySteps() }

// Close releases the session. The last Step's Output stays readable
// (nothing will overwrite it any more), but no further Step may run.
func (s *Session) Close() error { return s.s.Close() }

// Abort kills the session's world with cause, from any goroutine: a Step
// in flight unblocks and returns an error whose chain carries cause (and
// ErrWorldAborted), and every later Step fails fast with the same cause.
// It is the cancellation entry point for a host multiplexing many
// sessions — one goroutine drives Steps while another aborts. Close must
// still be called to release the session.
func (s *Session) Abort(cause error) { s.s.Abort(cause) }

// Steps returns the number of completed steps.
func (s *Session) Steps() int { return s.s.Steps() }

// WarmStats returns the cumulative warm/cold site counts over all steps
// and ranks: a site is warm when its particle moved at most the ghost
// distance since the previous step (the regime the retained buffers are
// sized for), cold when new or displaced farther. Every site of the first
// step is cold. The same numbers reach an attached Recorder as the
// "sites-warm" and "sites-cold" counters.
func (s *Session) WarmStats() (warm, cold int64) { return s.s.WarmStats() }

// SessionStats is the aggregate health of a session: warm/cold site
// classification, step count, and the adaptive-decomposition activity of
// a DecomposeRCB session.
type SessionStats struct {
	// WarmSites and ColdSites are the cumulative counts WarmStats returns.
	WarmSites, ColdSites int64
	// Steps is the number of completed steps.
	Steps int
	// Rebalances counts the warm re-decompositions performed (0 unless the
	// session uses DecomposeRCB with a RebalanceThreshold).
	Rebalances int
	// LastImbalance is the most recent step's compute-phase imbalance
	// ratio (slowest rank over mean; 1 = perfectly balanced, 0 before the
	// first step) — the signal compared against Config.RebalanceThreshold.
	LastImbalance float64
	// Uptime is how long the session has been open. Like every other field
	// here it is cumulative session state: a per-step obs Recorder Reset
	// (which wipes each step's counters) never touches it.
	Uptime time.Duration
}

// Stats returns the session's aggregate statistics.
func (s *Session) Stats() SessionStats {
	warm, cold := s.s.WarmStats()
	return SessionStats{
		WarmSites:     warm,
		ColdSites:     cold,
		Steps:         s.s.Steps(),
		Rebalances:    s.s.Rebalances(),
		LastImbalance: s.s.LastImbalance(),
		Uptime:        s.s.Uptime(),
	}
}
