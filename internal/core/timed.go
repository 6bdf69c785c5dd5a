package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/diy"
	"repro/internal/faultinject"
	"repro/internal/meshio"
	"repro/internal/obs"
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
// Figure 10 actually plot. The ghost sets are produced by a loopback
// equivalent of the neighborhood exchange that is test-verified to match
// the message-based path, and the collective write runs through the real
// communicator afterwards.
func RunTimed(cfg Config, particles []diy.Particle, numBlocks int) (*TimedOutput, error) {
	d, err := decomposeFor(cfg, numBlocks, particles)
	if err != nil {
		return nil, err
	}
	if err := ValidateGhost(d, cfg.GhostSize); err != nil {
		return nil, err
	}
	for _, p := range particles {
		if !cfg.Domain.Contains(p.Pos) {
			return nil, fmt.Errorf("core: particle %d at %v outside domain", p.ID, p.Pos)
		}
	}
	parts := diy.PartitionParticles(d, particles)

	rec := cfg.Recorder
	if rec != nil {
		if rec.Ranks() != numBlocks {
			return nil, fmt.Errorf("core: recorder sized for %d ranks, run has %d blocks", rec.Ranks(), numBlocks)
		}
		countBlock(rec, 0, new(BlockResult))
	}
	var inj *faultinject.Injector
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj = faultinject.New(*cfg.Faults, numBlocks)
	}

	out := &TimedOutput{}
	out.Meshes = make([]*meshio.BlockMesh, numBlocks)
	out.PerRankExchange = make([]time.Duration, numBlocks)
	out.PerRankCompute = make([]time.Duration, numBlocks)

	for rank := 0; rank < numBlocks; rank++ {
		res, err := runTimedRank(cfg, d, parts, rank, rec, inj, out)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", rank, err)
		}

		out.Meshes[rank] = res.Mesh
		out.Counts.Sites += res.Counts.Sites
		out.Counts.Incomplete += res.Counts.Incomplete
		out.Counts.CulledEarly += res.Counts.CulledEarly
		out.Counts.CulledExact += res.Counts.CulledExact
		out.Counts.Kept += res.Counts.Kept
		out.Ghosts += res.Ghosts
	}

	for rank := 0; rank < numBlocks; rank++ {
		if out.PerRankExchange[rank] > out.Timing.Exchange {
			out.Timing.Exchange = out.PerRankExchange[rank]
		}
		if out.PerRankCompute[rank] > out.Timing.Compute {
			out.Timing.Compute = out.PerRankCompute[rank]
		}
		out.SumCompute += out.PerRankCompute[rank]
	}

	// Collective write through the real communicator (its cost is
	// I/O-bound, not core-bound, so concurrent ranks are representative).
	if cfg.OutputPath != "" {
		payloads := make([][]byte, numBlocks)
		for rank, m := range out.Meshes {
			data, err := m.Encode()
			if err != nil {
				return nil, fmt.Errorf("core: rank %d encode: %w", rank, err)
			}
			payloads[rank] = data
		}
		var opts []comm.Option
		if cfg.StallTimeout > 0 {
			opts = append(opts, comm.WithWatchdog(cfg.StallTimeout))
		}
		w := comm.NewWorld(numBlocks, opts...)
		w.SetRecorder(rec)
		errs := make([]error, numBlocks)
		var mu sync.Mutex
		t0 := time.Now()
		runErr := w.Run(func(rank int) {
			sp := rec.Begin(rank, obs.PhaseOutput)
			n, err := diy.CollectiveWrite(w, rank, cfg.OutputPath, payloads[rank])
			rec.End(rank, sp)
			if err != nil {
				errs[rank] = err
				// Peers are blocked in CollectiveWrite's own collectives;
				// without the abort they would wait on this rank forever.
				w.Abort(&comm.RankError{Rank: rank, Value: err})
				return
			}
			if rank == 0 {
				mu.Lock()
				out.Timing.OutputBytes = n
				mu.Unlock()
			}
		})
		out.Timing.Output = time.Since(t0)
		for r, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("core: rank %d write: %w", r, err)
			}
		}
		if runErr != nil {
			return nil, fmt.Errorf("core: %w", runErr)
		}
	}
	out.Timing.Total = out.Timing.Exchange + out.Timing.Compute + out.Timing.Output
	out.Obs = rec.Snapshot()
	return out, nil
}

// runTimedRank executes one rank's exchange + compute section of the
// sequential timing loop, with the same fault containment the concurrent
// driver gets from comm.World.Run: an injected (or genuine) panic is
// recovered into a *comm.RankError instead of killing the process.
func runTimedRank(cfg Config, d *diy.Decomposition, parts [][]diy.Particle, rank int,
	rec *obs.Recorder, inj *faultinject.Injector, out *TimedOutput) (res *BlockResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &comm.RankError{Rank: rank, Value: v, Stack: debug.Stack()}
		}
	}()

	inj.Checkpoint(rank, "exchange")
	t0 := time.Now()
	sp := rec.Begin(rank, obs.PhaseExchange)
	ghosts := diy.GatherGhosts(d, rank, parts, cfg.GhostSize)
	rec.End(rank, sp)
	out.PerRankExchange[rank] = time.Since(t0)

	inj.Checkpoint(rank, "compute")
	t0 = time.Now()
	// Ranks run one at a time here, so each one's compute phase may use
	// the whole machine (concurrentRanks == 1). PerRankCompute keeps the
	// combined merge+compute semantics; the recorder splits the two.
	sp = rec.Begin(rank, obs.PhaseGhostMerge)
	bi := mergeGhosts(d.Block(rank), parts[rank], ghosts, cfg)
	rec.End(rank, sp)
	sp = rec.Begin(rank, obs.PhaseCompute)
	res, err = computeIndexedCells(bi, parts[rank], cfg, EffectiveWorkers(cfg, 1))
	if err != nil {
		return nil, err
	}
	rec.End(rank, sp)
	out.PerRankCompute[rank] = time.Since(t0)

	countBlock(rec, rank, res)
	return res, nil
}
