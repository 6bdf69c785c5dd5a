package tess

import (
	"os"

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
// sessions). StepFrom is Step over a snapshot Source, StepDensity runs the
// density pipeline through the session's ranks, Checkpoint persists what
// Resume needs, and Stats/WarmStats/Steps report its cumulative counters;
// see the methods in internal/core.
//
// The *Output returned by Step is a loan valid until the next Step;
// deep-copy it with Output.Clone to keep it longer. After an aborted step
// (rank failure, injected crash, watchdog stall) the session is
// terminally failed: every later Step returns the original abort error
// immediately, without hanging. A Session is driven from one goroutine —
// except Abort, the cancellation entry point, which any goroutine may
// call; Close is idempotent.
type Session = core.Session

// SessionStats is the aggregate health of a session (Session.Stats):
// cumulative warm/cold site counts and the step count.
type SessionStats = core.SessionStats

// StepOption adjusts one pass — a Step or StepFrom call, Run or
// AutoTessellate; see WithOutputPath.
type StepOption = core.StepOption

// WithOutputPath directs the pass's collective block write to path (empty
// writes nothing, the default) — per step, the in situ pattern of one
// output file per selected timestep. It is the only way to make a pass
// write.
func WithOutputPath(path string) StepOption { return core.WithOutputPath(path) }

// Open starts a persistent tessellation session over numBlocks blocks.
// cfg plays the same role as in Run; a negative or NaN cfg.GhostSize is an
// error here. A Step writes only where its WithOutputPath option says.
func Open(cfg Config, numBlocks int) (*Session, error) {
	return core.OpenSession(cfg, numBlocks)
}

// Resume reopens the session that Session.Checkpoint persisted in dir at
// its recorded step count: the next Step is step N+1, and the canonical
// merged output of every subsequent step is byte-identical to the
// uninterrupted session's (the crash-at-step-N fault-injection tests pin
// this). cfg and numBlocks must agree with the checkpoint on block count,
// domain, periodicity, ghost size, and decomposition kind; a checkpoint
// that is corrupt, incompatible or from another format version is an
// error, never a resumed session.
func Resume(cfg Config, dir string, numBlocks int) (*Session, error) {
	return core.ResumeSession(cfg, dir, numBlocks)
}

// ResumeIn is Resume from the directory dir refers to, for a caller that
// resolves its paths under an os.Root (as tessd does); Session.CheckpointIn
// writes there. A directory without a checkpoint is an error wrapping
// fs.ErrNotExist.
func ResumeIn(cfg Config, dir *os.Root, numBlocks int) (*Session, error) {
	return core.ResumeSessionIn(cfg, dir, numBlocks)
}
