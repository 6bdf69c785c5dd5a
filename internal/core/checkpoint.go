package core

import (
	"fmt"
	"os"

	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/storage"
)

// Checkpoint/restart rides on one fact: session reuse is purely
// structural. No floating-point state of a previous tessellation seeds the
// next one, so what a session must remember across a restart is what
// decides its bytes — the decomposition and the step counter — plus the
// cumulative warm/cold counters. Neither the last step's meshes (already
// written once, by the collective write) nor the warm/cold classifier's
// position memory (a resumed process has no retained buffers to be warm
// for) is part of it, and the decomposition is recorded only by what
// decides it: a grid by the config, an RCB tree by its cuts. A checkpoint
// is one manifest whose size follows the block count, not the mesh.

// decompKind names cfg's decomposition strategy in the manifest.
func decompKind(cfg Config) string {
	if cfg.Decomposition == DecomposeRCB {
		return "rcb"
	}
	return "grid"
}

func domainArray(b geom.Box) [6]float64 {
	return [6]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z}
}

// Checkpoint persists the session's resumable state into dir — the
// decomposition, the step counter and each rank's warm/cold counters — for
// a later ResumeSession. It may run any time after the first completed
// step and commits atomically: a crash mid-checkpoint leaves the previous
// complete checkpoint, or none.
func (s *Session) Checkpoint(dir string) error {
	man, err := s.manifest()
	if err != nil {
		return err
	}
	return storage.Save(dir, man)
}

// CheckpointIn is Checkpoint into the directory dir refers to.
func (s *Session) CheckpointIn(dir *os.Root) error {
	man, err := s.manifest()
	if err != nil {
		return err
	}
	return storage.SaveIn(dir, man)
}

// manifest is what Checkpoint persists, or why the session has nothing to
// persist.
func (s *Session) manifest() (storage.Manifest, error) {
	if s.closed {
		return storage.Manifest{}, fmt.Errorf("core: checkpoint of a closed session")
	}
	if s.terminal != nil {
		return storage.Manifest{}, fmt.Errorf("core: checkpoint of a terminally failed session: %w", s.terminal)
	}
	if s.steps == 0 {
		return storage.Manifest{}, fmt.Errorf("core: nothing to checkpoint before the first completed step")
	}
	man := storage.Manifest{
		Steps:     s.steps,
		NumBlocks: s.numBlocks,
		Periodic:  s.cfg.Periodic,
		Domain:    domainArray(s.cfg.Domain),
		Ghost:     s.cfg.GhostSize,
		Decomp:    decompKind(s.cfg),
		Cuts:      s.d.Cuts(),
		WarmSites: make([]int64, s.numBlocks),
		ColdSites: make([]int64, s.numBlocks),
	}
	for r := range s.ranks {
		man.WarmSites[r] = s.ranks[r].warmSites
		man.ColdSites[r] = s.ranks[r].coldSites
	}
	return man, nil
}

// ResumeSession reopens the session checkpointed in dir at its recorded
// step count: the next Step is step N+1, and the canonical merged output
// of every subsequent step is byte-identical to the uninterrupted
// session's. cfg and numBlocks must agree with the checkpoint on block
// count, domain, periodicity, ghost size, and decomposition kind; the
// decomposition is then rebuilt from those agreed fields (and an RCB
// session's recorded cuts), so no checkpoint can name another. The
// warm/cold counters continue from the checkpoint, and the first resumed
// step counts its sites cold. Fault-injection checkpoint numbering
// (Config.Faults) restarts at zero in the resumed session, and warm
// density-pipeline state (StepDensity) is not checkpointed.
func ResumeSession(cfg Config, dir string, numBlocks int) (*Session, error) {
	man, err := storage.Load(dir)
	if err != nil {
		return nil, err
	}
	return resume(cfg, man, numBlocks)
}

// ResumeSessionIn is ResumeSession from the directory dir refers to; a
// directory without a checkpoint is an error wrapping fs.ErrNotExist.
func ResumeSessionIn(cfg Config, dir *os.Root, numBlocks int) (*Session, error) {
	man, err := storage.LoadIn(dir)
	if err != nil {
		return nil, err
	}
	return resume(cfg, man, numBlocks)
}

func resume(cfg Config, man *storage.Manifest, numBlocks int) (*Session, error) {
	if numBlocks != man.NumBlocks {
		return nil, fmt.Errorf("core: resume blocks %d does not match checkpoint %d", numBlocks, man.NumBlocks)
	}
	if got, want := domainArray(cfg.Domain), man.Domain; got != want {
		return nil, fmt.Errorf("core: resume domain %v does not match checkpoint %v", got, want)
	}
	if cfg.Periodic != man.Periodic {
		return nil, fmt.Errorf("core: resume periodic=%v does not match checkpoint %v", cfg.Periodic, man.Periodic)
	}
	if cfg.GhostSize != man.Ghost {
		return nil, fmt.Errorf("core: resume ghost %g does not match checkpoint %g", cfg.GhostSize, man.Ghost)
	}
	if got, want := decompKind(cfg), man.Decomp; got != want {
		return nil, fmt.Errorf("core: resume decomposition %q does not match checkpoint %q", got, want)
	}
	s, err := OpenSession(cfg, numBlocks)
	if err != nil {
		return nil, err
	}
	if cfg.Decomposition == DecomposeRCB {
		d, err := diy.ReplayRCB(cfg.Domain, numBlocks, cfg.Periodic, man.Cuts, cfg.GhostSize)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.installDecomposition(d)
	}
	s.steps = man.Steps
	for r := range s.ranks {
		s.ranks[r].warmSites = man.WarmSites[r]
		s.ranks[r].coldSites = man.ColdSites[r]
	}
	return s, nil
}
