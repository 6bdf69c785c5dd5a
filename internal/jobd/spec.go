package jobd

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	tess "repro"
	"repro/internal/nbody"
)

// ErrBadSpec is the sentinel wrapped by every job-spec validation error;
// the HTTP layer maps it to 400 Bad Request.
var ErrBadSpec = errors.New("jobd: bad job spec")

// JobSpec is the JSON description of one tessellation job a client submits
// to the daemon. A job is a complete Session lifecycle: Open over Blocks
// blocks on a periodic cube [0, L)^3, one Step per input snapshot, Close.
// Particles come inline (Snapshots, one entry per step — the in situ
// host shipping its own state), from the built-in N-body simulation
// (Sim — a self-contained benchmark/demo tenant), or out of core from a
// chunked snapshot file on the daemon's filesystem (SnapshotURI).
// Exactly one of the three must be set.
type JobSpec struct {
	// Name is an optional client label echoed in statuses and events.
	Name string `json:"name,omitempty"`
	// L is the periodic cube side: the domain is [0, L)^3.
	L float64 `json:"l"`
	// Blocks is the number of blocks (= ranks) of the job's session.
	Blocks int `json:"blocks"`
	// Ghost overrides the ghost-region thickness (0 keeps the default 4,
	// as in NewPeriodicConfig; negative is refused).
	Ghost float64 `json:"ghost,omitempty"`
	// Decomposition selects "grid" (default) or "rcb".
	Decomposition string `json:"decomposition,omitempty"`
	// MinVolume / MaxVolume are the cell-volume culls (0 = off).
	MinVolume float64 `json:"min_volume,omitempty"`
	MaxVolume float64 `json:"max_volume,omitempty"`

	// Snapshots holds one particle set per step, each particle a [3]float64
	// position inside the domain. IDs are assigned sequentially per
	// snapshot, matching tess.ParticlesFromPositions.
	Snapshots [][][3]float64 `json:"snapshots,omitempty"`
	// Sim generates the job's snapshots from the built-in N-body
	// simulation instead (mutually exclusive with Snapshots).
	Sim *SimSpec `json:"sim,omitempty"`
	// SnapshotURI names a chunked snapshot file (written by
	// tess.WriteSnapshot) by a relative path inside the daemon's working
	// directory, as the job's single input snapshot, streamed out of core
	// through a windowed FileSource instead of being inlined in the spec
	// JSON. Exactly one of Snapshots, Sim, or SnapshotURI must be set; a
	// URI job runs one tessellation step.
	SnapshotURI string `json:"snapshot_uri,omitempty"`
	// SourceWindow bounds the snapshot source's resident chunk window
	// (<= 0 keeps every loaded chunk resident). Only meaningful with
	// SnapshotURI.
	SourceWindow int `json:"source_window,omitempty"`

	// CheckpointDir, when non-empty, checkpoints the job's session into
	// that directory, a relative path inside the daemon's working
	// directory, after every completed step. A killed job resubmitted
	// with the same spec (tessctl resume / POST /v1/jobs/{id}/resume)
	// reopens the committed checkpoint and continues from the step after
	// it instead of starting over.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`

	// Density attaches the streaming density pipeline to the job: after
	// every tessellation step the session also runs StepDensity over the
	// same snapshot, the step event carries a DensityDigest, and the full
	// grid (or one z-plane) is served at /v1/jobs/{id}/density/{step}.
	Density *DensitySpec `json:"density,omitempty"`

	// Fault arms the deterministic fault-injection plan for this job —
	// the chaos-testing surface: a tenant may carry its own crash or delay
	// schedule, and the daemon must contain it.
	Fault *FaultSpec `json:"fault,omitempty"`

	// IncludeMesh streams each step's merged canonical mesh (the
	// decomposition-independent encoding) back in the step event: base64
	// over NDJSON, raw bytes in event frames.
	IncludeMesh bool `json:"include_mesh,omitempty"`
	// IncludeObs attaches a per-step observability recorder and streams
	// each step's counters and imbalance in the step event.
	IncludeObs bool `json:"include_obs,omitempty"`
}

// SimSpec generates job snapshots from the built-in N-body simulation:
// NG^3 particles in an NG^3 box (NG a power of two, NG^3 within
// Limits.MaxParticles), tessellated every Every sim steps, Steps
// tessellation steps in total.
type SimSpec struct {
	NG    int `json:"ng"`
	Steps int `json:"steps"`
	Every int `json:"every,omitempty"`
}

// DensitySpec is the JSON form of the per-job density-pipeline config.
// The grid box is always the job's periodic domain; padding depth follows
// the session's ghost size.
type DensitySpec struct {
	// GridN is the sample-grid resolution per axis (>= 2).
	GridN int `json:"grid_n"`
	// Spectrum additionally computes the power spectrum each step
	// (requires a power-of-two GridN).
	Spectrum bool `json:"spectrum,omitempty"`
	// VoidThreshold overrides the void density cut (fraction of the mean;
	// 0 = default).
	VoidThreshold float64 `json:"void_threshold,omitempty"`
	// Percentiles overrides the reported density percentiles (empty =
	// default set).
	Percentiles []float64 `json:"percentiles,omitempty"`
}

// config builds the engine density config; the zero Box defers domain,
// periodicity, and padding to the session.
func (ds *DensitySpec) config() tess.DensityConfig {
	return tess.DensityConfig{
		GridN:         ds.GridN,
		Spectrum:      ds.Spectrum,
		VoidThreshold: ds.VoidThreshold,
		Percentiles:   ds.Percentiles,
	}
}

// FaultSpec is the JSON form of tess.FaultPlan (durations in
// milliseconds, the natural unit at job scale).
type FaultSpec struct {
	Seed              int64 `json:"seed,omitempty"`
	CrashRank         int   `json:"crash_rank,omitempty"`
	CrashStep         int   `json:"crash_step,omitempty"`
	ComputeDelayMaxMS int64 `json:"compute_delay_max_ms,omitempty"`
	SendDelayMaxMS    int64 `json:"send_delay_max_ms,omitempty"`
}

// plan converts the wire form to the engine plan.
func (f *FaultSpec) plan() *tess.FaultPlan {
	if f == nil {
		return nil
	}
	return &tess.FaultPlan{
		Seed:            f.Seed,
		CrashRank:       f.CrashRank,
		CrashStep:       f.CrashStep,
		ComputeDelayMax: time.Duration(f.ComputeDelayMaxMS) * time.Millisecond,
		SendDelayMax:    time.Duration(f.SendDelayMaxMS) * time.Millisecond,
	}
}

// badSpec builds an ErrBadSpec-wrapped validation error.
func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// Validate checks the spec against the daemon's admission limits. It is
// the cheap synchronous part of admission control: anything it rejects
// never occupies a queue slot. Past Limits and the JSON form's own rules,
// it calls the engine's Validate on the job's session and density configs.
// Errors wrap ErrBadSpec.
func (s *JobSpec) Validate(limits Limits) error {
	if s.Sim != nil {
		// A sim job's domain is fixed by the simulation (an NG^3 box); l may
		// be omitted or must agree.
		if s.L != 0 && s.L != float64(s.Sim.NG) {
			return badSpec("sim jobs run in an ng^3 box; l = %g conflicts with ng = %d", s.L, s.Sim.NG)
		}
	}
	if limits.MaxBlocks > 0 && s.Blocks > limits.MaxBlocks {
		return badSpec("blocks = %d exceeds the daemon's limit of %d", s.Blocks, limits.MaxBlocks)
	}
	switch s.Decomposition {
	case "", "grid", "rcb":
	default:
		return badSpec("decomposition %q, want \"grid\" or \"rcb\"", s.Decomposition)
	}
	sources := 0
	for _, set := range []bool{len(s.Snapshots) > 0, s.Sim != nil, s.SnapshotURI != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return badSpec("exactly one of snapshots, sim, or snapshot_uri must be set")
	}
	// Both paths resolve under the daemon's working directory (runJob opens
	// them through an os.Root there); one that could only lead outside it
	// is refused before anything touches the disk.
	for _, p := range []struct{ field, path string }{
		{"snapshot_uri", s.SnapshotURI}, {"checkpoint_dir", s.CheckpointDir},
	} {
		if p.path != "" && !filepath.IsLocal(p.path) {
			return badSpec("%s %q is not a relative path inside the daemon's directory", p.field, p.path)
		}
	}
	if s.SnapshotURI != "" && s.Density != nil {
		return badSpec("density is not supported with snapshot_uri (the streamed snapshot is never staged whole)")
	}
	if s.SourceWindow != 0 && s.SnapshotURI == "" {
		return badSpec("source_window requires snapshot_uri")
	}
	steps := s.Steps()
	hasSim := s.Sim != nil
	if hasSim {
		ng := s.Sim.NG
		if ng < 2 || ng&(ng-1) != 0 {
			return badSpec("sim.ng = %d, want a power of two >= 2", ng)
		}
		if s.Sim.Steps < 1 {
			return badSpec("sim.steps = %d, want >= 1", s.Sim.Steps)
		}
		// ng^3 > limit, by division so that ng^3 is never formed.
		if limit := limits.MaxParticles; limit > 0 && ng > limit/ng/ng {
			return badSpec("sim.ng = %d makes %d^3 particles, exceeding the daemon's limit of %d", ng, ng, limit)
		}
	}
	if limits.MaxSteps > 0 && steps > limits.MaxSteps {
		return badSpec("%d steps exceeds the daemon's limit of %d", steps, limits.MaxSteps)
	}
	// A negative ghost would otherwise fall back to the default 4.
	if !(s.Ghost >= 0) { // also rejects NaN
		return badSpec("ghost = %g, want >= 0 (0 = the default 4)", s.Ghost)
	}
	if f := s.Fault; f != nil {
		// Past this many milliseconds a time.Duration wraps.
		const maxMS = math.MaxInt64 / int64(time.Millisecond)
		for _, d := range []struct {
			field string
			ms    int64
		}{{"compute_delay_max_ms", f.ComputeDelayMaxMS}, {"send_delay_max_ms", f.SendDelayMaxMS}} {
			if d.ms > maxMS || d.ms < -maxMS {
				return badSpec("fault.%s = %d overflows a duration (at most %d in magnitude)", d.field, d.ms, maxMS)
			}
		}
	}
	// The session refuses the config too, but only once a worker opens it.
	cfg := s.config(0)
	if err := cfg.Validate(s.Blocks); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	var nmax int
	for i, snap := range s.Snapshots {
		if len(snap) == 0 {
			return badSpec("snapshot %d is empty", i)
		}
		if len(snap) > nmax {
			nmax = len(snap)
		}
		for j, p := range snap {
			for _, c := range p {
				if !(c >= 0 && c < s.L) { // also rejects NaN
					return badSpec("snapshot %d particle %d at %v outside [0, %g)^3", i, j, p, s.L)
				}
			}
		}
	}
	if limits.MaxParticles > 0 && nmax > limits.MaxParticles {
		return badSpec("%d particles exceeds the daemon's limit of %d", nmax, limits.MaxParticles)
	}
	if ds := s.Density; ds != nil {
		if limits.MaxGridN > 0 && ds.GridN > limits.MaxGridN {
			return badSpec("density.grid_n = %d exceeds the daemon's limit of %d", ds.GridN, limits.MaxGridN)
		}
		if err := cfg.ResolveDensity(ds.config()).Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
	}
	return nil
}

// Steps returns the number of tessellation steps the job will run.
func (s *JobSpec) Steps() int {
	if s.Sim != nil {
		return s.Sim.Steps
	}
	if s.SnapshotURI != "" {
		return 1
	}
	return len(s.Snapshots)
}

// domainL is the effective periodic cube side: l for inline jobs, the
// simulation's ng for sim jobs.
func (s *JobSpec) domainL() float64 {
	if s.Sim != nil {
		return float64(s.Sim.NG)
	}
	return s.L
}

// config builds the tess.Config for the job, honoring the daemon's stall
// watchdog default; its workers are the job's fair share of the
// process-wide worker budget.
func (s *JobSpec) config(stall time.Duration) tess.Config {
	var opts []tess.Option
	if s.Ghost > 0 {
		opts = append(opts, tess.WithGhostSize(s.Ghost))
	}
	if s.Decomposition == "rcb" {
		opts = append(opts, tess.WithDecomposition(tess.DecomposeRCB))
	}
	if p := s.Fault.plan(); p != nil {
		opts = append(opts, tess.WithFaults(p))
	}
	if stall > 0 {
		opts = append(opts, tess.WithStallTimeout(stall))
	}
	cfg := tess.NewPeriodicConfig(s.domainL(), opts...)
	cfg.MinVolume = s.MinVolume
	cfg.MaxVolume = s.MaxVolume
	return cfg
}

// snapshotSource yields the job's per-step particle sets in order: a
// replay of inline Snapshots, or live N-body evolution for a Sim job.
type snapshotSource interface {
	next() ([]tess.Particle, error)
}

// inlineSource replays JobSpec.Snapshots.
type inlineSource struct {
	snaps [][][3]float64
	i     int
}

func (src *inlineSource) next() ([]tess.Particle, error) {
	snap := src.snaps[src.i]
	src.i++
	out := make([]tess.Particle, len(snap))
	for j, p := range snap {
		out[j] = tess.Particle{ID: int64(j), Pos: tess.Vec3{X: p[0], Y: p[1], Z: p[2]}}
	}
	return out, nil
}

// simSource evolves the built-in N-body simulation Every steps between
// tessellations.
type simSource struct {
	sim   *nbody.Simulation
	every int
	first bool
}

func (src *simSource) next() ([]tess.Particle, error) {
	if !src.first {
		for i := 0; i < src.every; i++ {
			src.sim.StepOnce()
		}
	}
	src.first = false
	return tess.ParticlesFromSim(src.sim), nil
}

// source builds the job's snapshot source. For Sim jobs it creates the
// simulation (which may fail on bad parameters).
func (s *JobSpec) source() (snapshotSource, error) {
	if s.Sim != nil {
		sim, err := nbody.New(nbody.DefaultConfig(s.Sim.NG))
		if err != nil {
			return nil, fmt.Errorf("jobd: sim init: %w", err)
		}
		every := s.Sim.Every
		if every < 1 {
			every = 1
		}
		return &simSource{sim: sim, every: every, first: true}, nil
	}
	return &inlineSource{snaps: s.Snapshots}, nil
}
