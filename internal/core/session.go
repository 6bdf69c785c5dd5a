package core

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/density"
	"repro/internal/diy"
	"repro/internal/dtfe"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Session is a persistent tessellation pipeline: the domain decomposition,
// the communication world, the per-rank ghost-exchange state, the spatial
// index and compute scratch/pool storage, and the output mesh builders are
// set up once by OpenSession and reused by every Step. For an in situ loop
// tessellating many snapshots of the same simulation this amortizes all of
// the setup and nearly all of the per-step allocation away, while keeping
// every Step's results byte-identical to a standalone Run of the same
// particles (tests pin this across block counts, worker counts, and warm
// versus cold sessions).
//
// Reuse across steps is purely structural — buffers, pools, and cached
// link geometry. No geometric state of the previous tessellation seeds the
// next one: the cell clipping stream is replayed exactly, because its
// floating-point results are history-dependent (see DESIGN.md, "Session
// lifecycle & warm-start reuse"). The previous step's site positions are
// retained only to classify sites warm versus cold (displacement within
// the ghost distance or not), published via WarmStats and the sites-warm
// and sites-cold recorder counters. The decomposition is fixed for the
// session's life (an RCB session cuts it from its first step's
// particles); a host that wants a fresh cut opens a new session.
//
// The *Output returned by Step is a loan: its meshes live in the session's
// retained builders and are overwritten by the next Step. Callers that
// keep a step's output past the next call must deep-copy it with
// Output.Clone. A Session is not safe for concurrent use; drive it from
// one goroutine.
//
// Once the session has run StepDensity, each Step also triangulates its
// particles for the density pipeline on a goroutine of its own while the
// ranks tessellate, and the next StepDensity uses that build when its
// config and particle positions are the ones the build saw (see
// StepDensity). A Step not followed by such a StepDensity costs one spare
// build. Step, StepDensity and Close join a pending build before anything
// else, so no goroutine outlives the session.
//
// After any aborted step (injected crash, watchdog stall, pipeline error)
// the underlying world is dead and the session is terminally failed: every
// later Step returns the original abort error immediately, without
// hanging. Close releases the session; it is idempotent.
type Session struct {
	cfg       Config
	d         *diy.Decomposition
	w         *comm.World
	numBlocks int
	// inFlight is how many of the ranks compute at once: all of them, or
	// one under RunTimed, where the ranks take turns (see stepRank). It is
	// what the session registers with the process-wide worker budget
	// from OpenSession to Close and what EffectiveWorkers divides by.
	inFlight int

	steps    int
	terminal error // sticky first abort; session unusable once set
	closed   bool

	parts    [][]diy.Particle // retained per-rank partition buffers
	ranks    []rankState
	rankErrs []error // runRanks' per-rank error slots

	// Warm density-pipeline state (StepDensity). The pipeline retains its
	// triangulation scratch, estimator accumulators, and grid buffers
	// across steps; it is rebuilt only when the density config changes.
	// densPts holds the positions the pipeline last triangulated, or is
	// triangulating for pf: the build a Step started that no call has
	// joined yet (nil when there is none).
	dens      *density.Pipeline
	densCfg   density.Config
	densPts   []geom.Vec3
	densStats []dtfe.SampleStats
	pf        *prefetch
}

// Validate reports whether a session of numBlocks >= 1 blocks can run cfg:
// a finite domain with a positive extent on every axis, a ghost in
// [0, GhostCeiling], volume culls >= 0 with a positive max above a positive
// min, an armed crash on one of the ranks, no negative fault delay, and a
// recorder sized for the ranks. Open and tessd's admission both call it.
func (cfg Config) Validate(numBlocks int) error {
	lo, hi := cfg.Domain.Min, cfg.Domain.Max
	for a := 0; a < 3; a++ {
		// hi - lo is NaN or infinite when either end is.
		if s := hi.Component(a) - lo.Component(a); !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("core: domain %v to %v, want a finite box with a positive extent on every axis", lo, hi)
		}
	}
	if !(cfg.GhostSize >= 0) { // also rejects NaN
		return fmt.Errorf("core: ghost size %g, want >= 0", cfg.GhostSize)
	}
	if reach := GhostCeiling(cfg); cfg.GhostSize > reach {
		return fmt.Errorf("core: ghost size %g exceeds the link reach %g (use a smaller ghost)", cfg.GhostSize, reach)
	}
	// A negative volume cull would silently be off, and a max at or below
	// the min would cull every cell.
	if !(cfg.MinVolume >= 0 && cfg.MaxVolume >= 0) { // also rejects NaN
		return fmt.Errorf("core: volume cull min %g max %g, want >= 0 (0 = off)", cfg.MinVolume, cfg.MaxVolume)
	}
	if cfg.MinVolume > 0 && cfg.MaxVolume > 0 && cfg.MaxVolume <= cfg.MinVolume {
		return fmt.Errorf("core: max volume %g is not above min volume %g (every cell would be culled)", cfg.MaxVolume, cfg.MinVolume)
	}
	if numBlocks < 1 {
		return fmt.Errorf("core: %d blocks, want >= 1", numBlocks)
	}
	if f := cfg.Faults; f != nil {
		// A crash on a rank the session does not have would never fire.
		if f.CrashStep > 0 && (f.CrashRank < 0 || f.CrashRank >= numBlocks) {
			return fmt.Errorf("core: fault crash rank %d outside [0, %d)", f.CrashRank, numBlocks)
		}
		if f.ComputeDelayMax < 0 || f.SendDelayMax < 0 {
			return fmt.Errorf("core: fault delays %v / %v, want >= 0", f.ComputeDelayMax, f.SendDelayMax)
		}
	}
	if cfg.Recorder != nil && cfg.Recorder.Ranks() != numBlocks {
		return fmt.Errorf("core: recorder sized for %d ranks, run has %d blocks", cfg.Recorder.Ranks(), numBlocks)
	}
	return nil
}

// OpenSession builds the persistent state for repeated tessellation passes
// of numBlocks blocks under cfg: the decomposition, the communication
// world (with watchdog and fault injection armed per cfg, the injector's
// per-rank step counters accumulating across the session's steps), the
// per-rank exchange state, and the recorder registration. A step writes
// only where its WithOutputPath option says.
func OpenSession(cfg Config, numBlocks int) (*Session, error) {
	return openSession(cfg, numBlocks, numBlocks)
}

// openSession is OpenSession for a session that keeps inFlight of the
// numBlocks ranks computing at once.
func openSession(cfg Config, numBlocks, inFlight int) (*Session, error) {
	if err := cfg.Validate(numBlocks); err != nil {
		return nil, err
	}
	// A grid is fixed by the config; an RCB session cuts its decomposition
	// from its first step's particles (stage), or a resume replays it.
	var d *diy.Decomposition
	if cfg.Decomposition != DecomposeRCB {
		var err error
		if d, err = diy.Decompose(cfg.Domain, numBlocks, cfg.Periodic); err != nil {
			return nil, err
		}
	}
	var opts []comm.Option
	if cfg.StallTimeout > 0 {
		opts = append(opts, comm.WithWatchdog(cfg.StallTimeout))
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj := faultinject.New(*cfg.Faults, numBlocks)
		cfg.injector = inj
		if cfg.Faults.SendDelayMax > 0 {
			opts = append(opts, comm.WithSendDelay(inj.SendDelay))
		}
	}
	s := &Session{
		cfg:       cfg,
		w:         comm.NewWorld(numBlocks, opts...),
		numBlocks: numBlocks,
		inFlight:  inFlight,
		ranks:     make([]rankState, numBlocks),
		rankErrs:  make([]error, numBlocks),
	}
	if cfg.Recorder != nil {
		s.w.SetRecorder(cfg.Recorder)
	}
	for r := range s.ranks {
		s.ranks[r].prev = map[int64]geom.Vec3{}
	}
	if d != nil {
		s.installDecomposition(d)
	}
	// Register the session's in-flight ranks with the worker budget for its
	// whole lifetime (released by Close): every error return is behind us, so
	// the acquire/release pairing is exact.
	sharedBudget.acquire(inFlight)
	return s, nil
}

// installDecomposition makes d the session's decomposition and builds the
// per-rank exchangers for its link geometry.
func (s *Session) installDecomposition(d *diy.Decomposition) {
	s.d = d
	for r := range s.ranks {
		s.ranks[r].ex = diy.NewExchanger(d, r, s.cfg.GhostSize)
	}
}

// StepOption adjusts one pass (Step, StepFrom, Run, RunTimed, AutoRun);
// WithOutputPath is the only one.
type StepOption func(outputPath *string)

// WithOutputPath directs the pass's collective block write to path (empty
// writes nothing, the default) — per step, the in situ pattern of one
// output file per selected timestep.
func WithOutputPath(path string) StepOption {
	return func(outputPath *string) { *outputPath = path }
}

// Step runs one full tessellation pass over particles through the
// session's retained state, writing where a WithOutputPath option says.
// The returned Output is a loan valid until the next Step (see Session);
// its content is byte-identical to Run(cfg, particles, numBlocks) with the
// session's configuration. On a session that has run StepDensity it also
// starts the next StepDensity's triangulation of particles (see Session).
func (s *Session) Step(particles []diy.Particle, opts ...StepOption) (*Output, error) {
	return s.step(storage.NewSliceSource(particles), particles, opts)
}

// usable is the preamble of every step variant: a closed or terminally
// failed session runs nothing.
func (s *Session) usable() error {
	if s.closed {
		return fmt.Errorf("core: session is closed")
	}
	if s.terminal == nil {
		// An Abort between steps (a tenant canceled from another goroutine
		// while no Step was in flight) kills the world without a Step there
		// to observe it; adopt it now so the session fails fast instead of
		// entering a dead world.
		if werr := s.w.Err(); werr != nil {
			s.terminal = werr
		}
	}
	if s.terminal != nil {
		return fmt.Errorf("core: session terminally failed at step %d: %w", s.steps, s.terminal)
	}
	return nil
}

// StepFrom is the step path every variant routes through: one full
// tessellation pass over the particles supplied by src, consumed chunk
// by chunk so a windowed FileSource never stages the whole snapshot.
// Inline Steps arrive here as single-chunk SliceSources; the output is
// byte-identical either way because chunk concatenation is the snapshot
// in order and partitioning is order-preserving.
//
// The exception is the first step of an RCB session, which builds the
// decomposition: it needs every particle position at once and therefore
// materializes the source for that step only. StepFrom starts no density
// triangulation (Step does).
func (s *Session) StepFrom(src storage.Source, opts ...StepOption) (*Output, error) {
	return s.step(src, nil, opts)
}

// step is StepFrom, and with particles (src's content, given by Step) it
// starts their density triangulation once the step is validated.
func (s *Session) step(src storage.Source, particles []diy.Particle, opts []StepOption) (*Output, error) {
	s.joinPrefetch() // a Step not followed by StepDensity wastes its build
	if err := s.usable(); err != nil {
		return nil, err
	}
	var outputPath string
	for _, opt := range opts {
		opt(&outputPath)
	}
	if err := s.stage(src); err != nil {
		return nil, err
	}
	rec := s.cfg.Recorder
	if rec != nil && s.steps > 0 {
		// Each step gets a fresh observation epoch; counter registrations
		// (and their IDs) survive the reset.
		rec.Reset()
	}
	if particles != nil {
		s.startPrefetch(particles)
	}

	if err := s.runRanks(func(rank int) error { return s.stepRank(rank, outputPath) }); err != nil {
		return nil, err
	}
	// The world's join publishes every rank's slot; the totals are summed
	// here, after it, so the step runs no collective of its own.
	out := &Output{Meshes: make([]*meshio.BlockMesh, s.numBlocks)}
	for rank := range s.ranks {
		rs := &s.ranks[rank]
		out.Meshes[rank] = rs.res.Mesh
		out.Counts = out.Counts.add(rs.res.Counts)
		out.Ghosts += rs.res.Ghosts
		out.Bytes += rs.written
	}
	if rec != nil {
		out.Obs = rec.Snapshot()
	}
	s.steps++
	return out, nil
}

// stage loads one step's particles into the per-rank partition buffers in
// the one order every driver uses: validate, build the decomposition if
// this is an RCB session's first step (see StepFrom; the particles are
// gathered into one array sized from the source's count), partition. It is the
// only place that walks a source, and it releases each chunk on every path:
// a rejected step is not terminal, so a chunk left pinned would shrink the
// source's window for good.
func (s *Session) stage(src storage.Source) error {
	build := s.d == nil
	var all []diy.Particle
	if build {
		all = make([]diy.Particle, 0, src.Stats().TotalParticles)
	} else {
		s.parts = diy.ResetPartition(s.d, s.parts)
	}
	for c, n := 0, src.Chunks(); c < n; c++ {
		chunk, err := src.Chunk(c)
		if err != nil {
			return fmt.Errorf("core: source chunk %d: %w", c, err)
		}
		err = checkInDomain(chunk, s.cfg.Domain)
		if err == nil {
			if build {
				all = append(all, chunk...)
			} else {
				s.parts = diy.PartitionParticlesAppend(s.d, chunk, s.parts)
			}
		}
		src.Release(c)
		if err != nil {
			return err
		}
	}
	if !build {
		return nil
	}
	d, err := diy.DecomposeRCB(s.cfg.Domain, s.numBlocks, s.cfg.Periodic, all, s.cfg.GhostSize)
	if err != nil {
		return err
	}
	s.installDecomposition(d)
	s.parts = diy.PartitionParticlesAppend(s.d, all, diy.ResetPartition(s.d, s.parts))
	return nil
}

// runRanks runs body once per rank, concurrently, on the session's world
// and folds the outcome into one error. A rank whose body returns an error
// aborts the world — its peers are (or soon will be) blocked in a
// collective, and without the abort they would wait forever on a rank that
// is never coming — and is reported as that rank's error; a contained panic
// or a watchdog stall surfaces as the world's structured abort cause.
// Either way the world is dead afterwards, so the session is terminally
// failed.
func (s *Session) runRanks(body func(rank int) error) error {
	clear(s.rankErrs)
	runErr := s.w.Run(func(rank int) {
		if err := body(rank); err != nil {
			s.rankErrs[rank] = err
			s.w.Abort(&comm.RankError{Rank: rank, Value: err})
		}
	})
	if werr := s.w.Err(); werr != nil {
		s.terminal = werr
	}
	for r, err := range s.rankErrs {
		if err != nil {
			return fmt.Errorf("core: rank %d: %w", r, err)
		}
	}
	if runErr != nil {
		return fmt.Errorf("core: %w", runErr)
	}
	return nil
}

// checkInDomain rejects particles outside the configured domain before
// they can reach Locate.
func checkInDomain(ps []diy.Particle, domain geom.Box) error {
	for _, p := range ps {
		if !domain.Contains(p.Pos) {
			return fmt.Errorf("core: particle %d at %v outside domain", p.ID, p.Pos)
		}
	}
	return nil
}

// stepRank is one rank's pass: warm/cold bookkeeping, the ghost exchange
// through the rank's retained link geometry and receive buffers, then the
// compute and output phases, whose block and written bytes it leaves in
// the rank's slot for step to sum. The fault checkpoints number the pipeline
// steps each rank passes (exchange, compute, output, done), accumulating
// across the session's steps (1..4 in the first Step, 5..8 in the second,
// and so on), so a crash-at-step-N plan can target any step of a long
// session; an injected crash panics at the matching checkpoint and the
// containment layer in comm.World.Run turns it into a RankError.
//
// With fewer ranks in flight than blocks (RunTimed) the ranks take turns
// at compute: rank r waits out r barrier rounds, computes, and waits out
// the remaining numBlocks-r, so exactly one compute runs per round and all
// ranks leave the last round together for the output phase. Barriers, not
// a lock, because they are abortable, watchdog-visible and recorded as
// barrier wait; none of it lands in the rank's compute time.
func (s *Session) stepRank(rank int, outputPath string) error {
	rec := s.cfg.Recorder
	inj := s.cfg.injector
	rs := &s.ranks[rank]
	local := s.parts[rank]
	turns := s.inFlight < s.numBlocks

	// Warm/cold bookkeeping: a site is warm when its particle moved at
	// most the ghost distance since the previous step, the regime the
	// retained buffers are sized for. The classification is advisory (it
	// feeds WarmStats and the recorder); the pipeline below runs the same
	// exact code either way.
	warm, cold := 0, 0
	for _, p := range local {
		if q, ok := rs.prev[p.ID]; ok && q.Dist(p.Pos) <= s.cfg.GhostSize {
			warm++
		} else {
			cold++
		}
	}
	rs.warmSites += int64(warm)
	rs.coldSites += int64(cold)
	clear(rs.prev)
	for _, p := range local {
		rs.prev[p.ID] = p.Pos
	}

	inj.Checkpoint(rank, "exchange")
	sp := rec.Begin(rank, obs.PhaseExchange)
	ghosts := rs.ex.Exchange(s.w, s.d, rank, local)
	rec.End(rank, sp)

	if turns {
		for range rank {
			s.w.BarrierRank(rank)
		}
	}
	res, err := rs.compute(s.cfg, rank, s.d.Block(rank), local, ghosts, EffectiveWorkers(s.cfg, s.inFlight))
	if err != nil {
		return err
	}
	if turns {
		for range s.numBlocks - rank {
			s.w.BarrierRank(rank)
		}
	}

	inj.Checkpoint(rank, "output")
	n, err := writeBlock(rec, s.w, rank, res.Mesh, outputPath)
	if err != nil {
		return err
	}
	rs.res, rs.written = res, n
	inj.Checkpoint(rank, "done")
	rec.Count(rank, obs.CounterSitesWarm, int64(warm))
	rec.Count(rank, obs.CounterSitesCold, int64(cold))
	return nil
}

// Close releases the session, after joining any density triangulation a
// Step left pending. The per-step loan contract ends with it: the
// last Step's Output stays readable (nothing will overwrite it any more),
// but no further Step may run. Close is idempotent and returns nil.
func (s *Session) Close() error {
	s.joinPrefetch()
	if !s.closed {
		s.closed = true
		sharedBudget.release(s.inFlight)
	}
	return nil
}

// Abort kills the session's communication world with cause, from any
// goroutine: a Step in flight unblocks and returns an error whose chain
// carries cause (and comm.ErrWorldAborted), and every later Step fails
// fast with the same cause. It is the tenant-cancellation entry point of a
// daemon multiplexing many sessions — one goroutine drives the session's
// Steps while another may abort it. Aborting an already-dead world is a
// no-op; Close must still be called to release the session. A density
// triangulation a Step started is not interrupted: it runs to its end, and
// the next call of the session or Close joins it.
func (s *Session) Abort(cause error) {
	s.w.Abort(cause)
}

// Steps returns the number of completed (successful) steps.
func (s *Session) Steps() int { return s.steps }

// WarmStats returns the cumulative warm/cold site classification over all
// steps and ranks: warm sites moved at most the ghost distance since the
// step before, cold sites were new or displaced farther (every site of the
// first step is cold).
func (s *Session) WarmStats() (warm, cold int64) {
	for r := range s.ranks {
		warm += s.ranks[r].warmSites
		cold += s.ranks[r].coldSites
	}
	return warm, cold
}

// SessionStats is the aggregate health of a session: warm/cold site
// classification and step count.
type SessionStats struct {
	// WarmSites and ColdSites are the cumulative counts WarmStats returns.
	WarmSites, ColdSites int64
	// Steps is the number of completed steps.
	Steps int
}

// Stats returns the session's aggregate statistics. Like Steps and
// WarmStats they are cumulative session state: a per-step Recorder Reset
// (which wipes each step's counters) never touches them.
func (s *Session) Stats() SessionStats {
	warm, cold := s.WarmStats()
	return SessionStats{WarmSites: warm, ColdSites: cold, Steps: s.steps}
}
