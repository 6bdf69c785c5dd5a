package core

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/comm"
	"repro/internal/diy"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/storage"
)

// TimedOutput extends Output with the per-rank phase times the performance
// study needs.
type TimedOutput struct {
	Output
	// PerRankExchange and PerRankCompute hold each rank's phase wall time.
	PerRankExchange []time.Duration
	PerRankCompute  []time.Duration
	// SumCompute is the total serial compute across all ranks (used for
	// efficiency accounting).
	SumCompute time.Duration
}

// RunTimed executes the tess pipeline with ranks timed one at a time and
// reports the slowest-rank time per phase — the wall time an MPI job with
// one dedicated core per rank would observe. On hosts with fewer cores
// than ranks (this reproduction's usual situation), timing concurrent
// goroutines would charge every rank for its neighbors' CPU time and erase
// the scaling signal; sequential per-rank timing measures what Table II and
// Figure 10 actually plot. It is a single-step session like Run, under a
// different scheduler: the ranks run the same compute phase one after
// another, fed by a loopback equivalent of the neighborhood exchange that
// is test-verified to match the message-based path, and then write
// together through the session's communicator.
func RunTimed(cfg Config, particles []diy.Particle, numBlocks int) (*TimedOutput, error) {
	// One rank is in flight at a time, and that is how the pass registers
	// with the worker budget: each rank's compute phase gets the whole
	// machine (EffectiveWorkers over one rank).
	s, err := openSession(cfg, numBlocks, 1)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.stepTimed(particles)
}

// stepTimed is RunTimed's pass over an open session.
func (s *Session) stepTimed(particles []diy.Particle) (*TimedOutput, error) {
	if err := s.stage(storage.NewSliceSource(particles)); err != nil {
		return nil, err
	}
	out := &TimedOutput{
		Output:          Output{Meshes: make([]*meshio.BlockMesh, s.numBlocks)},
		PerRankExchange: make([]time.Duration, s.numBlocks),
		PerRankCompute:  make([]time.Duration, s.numBlocks),
	}
	for rank := range s.ranks {
		res, err := s.timedRank(rank, out)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", rank, err)
		}
		out.Meshes[rank] = res.Mesh
		out.Counts = out.Counts.add(res.Counts)
		out.Ghosts += res.Ghosts

		out.Timing.Exchange = max(out.Timing.Exchange, out.PerRankExchange[rank])
		out.Timing.Compute = max(out.Timing.Compute, out.PerRankCompute[rank])
		out.SumCompute += out.PerRankCompute[rank]
	}

	// Collective write, all ranks at once (its cost is I/O-bound, not
	// core-bound, so concurrent ranks are representative).
	if path := s.cfg.OutputPath; path != "" {
		t0 := time.Now()
		err := s.runRanks(func(rank int) error {
			n, _, err := writeBlock(s.cfg.Recorder, s.w, rank, out.Meshes[rank], path)
			if rank == 0 {
				out.Timing.OutputBytes = n
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		out.Timing.Output = time.Since(t0)
	}
	out.Timing.Total = out.Timing.Exchange + out.Timing.Compute + out.Timing.Output
	out.Obs = s.cfg.Recorder.Snapshot()
	return out, nil
}

// timedRank is one rank's turn under the sequential scheduler — the
// loopback exchange, then the shared compute phase — with the fault
// containment the concurrent scheduler gets from comm.World.Run: an
// injected (or genuine) panic is recovered into a *comm.RankError instead
// of killing the process.
func (s *Session) timedRank(rank int, out *TimedOutput) (res *BlockResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &comm.RankError{Rank: rank, Value: v, Stack: debug.Stack()}
		}
	}()
	rec := s.cfg.Recorder

	s.cfg.injector.Checkpoint(rank, "exchange")
	t0 := time.Now()
	sp := rec.Begin(rank, obs.PhaseExchange)
	ghosts := diy.GatherGhosts(s.d, rank, s.parts, s.cfg.GhostSize)
	rec.End(rank, sp)
	out.PerRankExchange[rank] = time.Since(t0)

	res, out.PerRankCompute[rank], err = s.ranks[rank].compute(s.cfg, rank, s.d.Block(rank), s.parts[rank], ghosts, EffectiveWorkers(s.cfg, s.inFlight))
	return res, err
}
