package tess

import (
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/diy"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/voids"
)

// Particle is a point with a stable global ID (the unit of work the
// tessellation distributes across blocks).
type Particle = diy.Particle

// Config controls a tessellation pass; see the field documentation in
// internal/core. Construct one with NewPeriodicConfig or NewBoundedConfig
// and adjust as needed.
type Config = core.Config

// Output is the gathered result of a tessellation: per-block meshes, global
// cell counts, the written file size, and (with a Recorder) the pass's
// observability snapshot, whose SlowestRank gives the phase timings.
type Output = core.Output

// CellCounts tracks how many cells were kept, culled, or incomplete.
type CellCounts = core.CellCounts

// CellSummary is a flattened per-cell row (ID, site, volume, area, faces).
type CellSummary = core.CellSummary

// AccuracyReport compares a parallel run against a serial reference
// (Table I's matching-cells metric).
type AccuracyReport = core.AccuracyReport

// SimConfig configures the built-in particle-mesh N-body simulation (the
// HACC stand-in); construct one with NewSimConfig.
type SimConfig = nbody.Config

// Simulation is the N-body simulation driven by in situ analysis.
type Simulation = nbody.Simulation

// NewSimConfig returns the default simulation configuration for ng^3
// particles in an ng^3 periodic box, tuned so that ~100 steps follow the
// paper's structure-formation schedule.
func NewSimConfig(ng int) SimConfig { return nbody.DefaultConfig(ng) }

// NewSimulation creates a simulation with Zel'dovich initial conditions.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return nbody.New(cfg) }

// Vec3 is the 3D vector type used throughout the API.
type Vec3 = geom.Vec3

// Box is an axis-aligned box.
type Box = geom.Box

// DecompKind selects the block decomposition strategy (see the constants).
type DecompKind = core.DecompKind

const (
	// DecomposeRegular is the paper's regular grid of equal-volume blocks
	// (the default).
	DecomposeRegular = core.DecomposeRegular
	// DecomposeRCB builds particle-balanced blocks by recursive coordinate
	// bisection: the domain splits along the longest axis at the weighted
	// median of the particle positions until every block holds ~equal
	// particle counts. On clustered inputs this removes the compute-phase
	// imbalance of equal-volume blocks; merged canonical output is
	// byte-identical to the regular grid.
	DecomposeRCB = core.DecomposeRCB
)

// Option adjusts a Config built by NewPeriodicConfig or NewBoundedConfig.
// Options are pure sugar over the Config fields — applying them by hand
// after construction is equivalent.
type Option func(*Config)

// WithDecomposition selects the block decomposition strategy
// (Config.Decomposition): DecomposeRegular (default) or DecomposeRCB.
func WithDecomposition(k DecompKind) Option {
	return func(c *Config) { c.Decomposition = k }
}

// WithWorkers sets the number of intra-rank compute worker goroutines
// (Config.Workers; 0 divides the process-wide worker budget among the
// concurrent ranks). Results are identical for every worker count.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithRecorder attaches an observability recorder (Config.Recorder), sized
// to the block count of the runs it will observe.
func WithRecorder(r *Recorder) Option { return func(c *Config) { c.Recorder = r } }

// WithFaults arms the deterministic fault-injection plan (Config.Faults).
func WithFaults(p *FaultPlan) Option { return func(c *Config) { c.Faults = p } }

// WithStallTimeout arms the communication stall watchdog
// (Config.StallTimeout).
func WithStallTimeout(d time.Duration) Option { return func(c *Config) { c.StallTimeout = d } }

// WithGhostSize overrides the ghost-region thickness (Config.GhostSize).
func WithGhostSize(g float64) Option { return func(c *Config) { c.GhostSize = g } }

// NewPeriodicConfig returns a Config for the cosmology case: a periodic
// cubic box [0, L)^3 with a ghost size of 4 units (adequate for particle
// sets at ~1 unit mean spacing, per the paper's accuracy study). The
// Quickhull geometry pass (Config.HullPass, the paper's step 3(d)) is off:
// it re-derives a volume the clipping kernel already has, at three times
// the kernel's cost; set it for the paper's cost model or as a cross-check.
// Options are applied in order on top of those defaults.
func NewPeriodicConfig(L float64, opts ...Option) Config {
	cfg := Config{
		// Not NewBox, which would make a negative L the box [L, 0)^3.
		Domain:    geom.Box{Max: geom.V(L, L, L)},
		Periodic:  true,
		GhostSize: 4,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// NewBoundedConfig returns a Config for a non-periodic domain; cells
// touching the domain boundary are reported incomplete and deleted unless
// KeepIncomplete is set. Options are applied in order on top of the
// defaults.
func NewBoundedConfig(domain geom.Box, opts ...Option) Config {
	cfg := Config{
		Domain:    domain,
		Periodic:  false,
		GhostSize: 4,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// Run executes a standalone tessellation pass — a single-step session
// (Open, one Step, Close) under the hood; callers tessellating many
// snapshots of the same domain should keep a Session open instead. It is
// the fault-contained entry point an in situ host should call: a rank that
// panics — whether a genuine engine bug or an injected Config.Faults crash
// — surfaces as an error whose chain contains a *RankError (and
// ErrWorldAborted), never a process exit; with Config.StallTimeout armed,
// a communication deadlock surfaces as a *StallError wait-for dump instead
// of a hang. Within each rank the compute phase fans out over
// Config.Workers goroutines (0, the default, divides GOMAXPROCS among the
// concurrent ranks); the output is identical for every worker count. It
// writes the blocks only where a WithOutputPath option says.
func Run(cfg Config, particles []Particle, numBlocks int, opts ...StepOption) (*Output, error) {
	return core.Run(cfg, particles, numBlocks, opts...)
}

// FaultPlan is the deterministic fault-injection plan attachable to
// Config.Faults: seeded per-rank compute slowdowns, message delivery
// delays, and rank crash-at-step-N. Delay-only plans leave the output
// byte-identical to a fault-free run; crash plans make the run return an
// error carrying a *RankError. See internal/faultinject.
type FaultPlan = faultinject.Plan

// FaultCrash is the panic value of an injected crash, recoverable from a
// failed run's error chain via errors.As (it sits inside the RankError).
type FaultCrash = faultinject.Crash

// RankError reports a single failing rank: the value it panicked with (or
// the error it returned) plus the goroutine stack for panics. Extract it
// from a failed run with errors.As.
type RankError = comm.RankError

// StallError is the stall watchdog's diagnosis of a communication
// deadlock: a wait-for-graph dump of what every rank was blocked on when
// no progress had been made for Config.StallTimeout.
type StallError = comm.StallError

// ErrWorldAborted is the sentinel present (via errors.Is) in every error
// produced by a run that was aborted — by a rank failure, an injected
// crash, or the stall watchdog.
var ErrWorldAborted = comm.ErrWorldAborted

// WorkerBudget arbitrates the machine's cores among concurrently running
// tessellation pipelines: every open Session registers its rank count with
// the one process-wide budget, and pipelines without an explicit Workers
// setting divide its total, GOMAXPROCS, by the ranks active across all of
// them — so two concurrent Runs, or a daemon's tenant jobs, split the
// machine instead of each assuming it owns it. Worker counts are advisory
// scheduling only — results are byte-identical for every worker count.
type WorkerBudget = core.WorkerBudget

// SharedWorkerBudget returns the process-wide budget every pipeline draws
// on.
func SharedWorkerBudget() *WorkerBudget { return core.SharedWorkerBudget() }

// CompareAccuracy matches a parallel run's cells against a reference run
// by particle ID (Table I's metric).
func CompareAccuracy(reference, parallel []CellSummary, tol float64) AccuracyReport {
	return core.CompareAccuracy(reference, parallel, tol)
}

// Recorder is the always-on observability recorder: attach one to
// Config.Recorder (sized to the block count) and the pass collects per-rank
// phase spans, per-pair communication counters, and pipeline metrics into
// Output.Obs. A nil recorder costs one pointer test per hook.
type Recorder = obs.Recorder

// ObsSnapshot is the immutable aggregate of a recorded pass; it exports as
// Chrome trace-event JSON via WriteTrace/WriteTraceFile (open the file in
// chrome://tracing or https://ui.perfetto.dev).
type ObsSnapshot = obs.Snapshot

// NewRecorder returns a Recorder for a run over numBlocks blocks.
func NewRecorder(numBlocks int) *Recorder { return obs.NewRecorder(numBlocks) }

// Phase identifies one stage of the per-rank pipeline in an ObsSnapshot
// (exchange, ghost merge, compute, output, barrier).
type Phase = obs.Phase

// Pipeline phases, usable with ObsSnapshot.SlowestRank / Imbalance.
const (
	PhaseExchange    = obs.PhaseExchange
	PhaseGhostMerge  = obs.PhaseGhostMerge
	PhaseCompute     = obs.PhaseCompute
	PhaseOutput      = obs.PhaseOutput
	PhaseBarrier     = obs.PhaseBarrier
	PhaseTriangulate = obs.PhaseTriangulate
	PhaseInterpolate = obs.PhaseInterpolate
	PhaseSpectrum    = obs.PhaseSpectrum

	PhaseTriangulateWait = obs.PhaseTriangulateWait
)

// DensityConfig configures the streaming density pipeline (DTFE
// interpolation onto a sample grid plus spectrum/void statistics); see
// Session.StepDensity. A zero Box inherits the session's domain.
type DensityConfig = density.Config

// DensityResult is one snapshot's density-pipeline output. When returned
// by StepDensity its Grid is loaned until the next StepDensity; Clone
// detaches it.
type DensityResult = density.Result

// DensityStats summarizes a sampled density grid (mean, percentiles, void
// fraction, and the grid-vs-tracer mass-conservation diagnostic).
type DensityStats = density.Stats

// SpectrumBin is one radial bin of a density power spectrum.
type SpectrumBin = density.SpectrumBin

// EncodeDensityGrid serializes a density grid as little-endian float64s,
// the wire format of the daemon's grid-slice endpoint.
func EncodeDensityGrid(grid []float64) []byte { return density.EncodeGrid(grid) }

// DecodeDensityGrid parses a grid encoded by EncodeDensityGrid.
func DecodeDensityGrid(b []byte) ([]float64, error) { return density.DecodeGrid(b) }

// ComputeDensity runs the density pipeline once, outside any session —
// the direct single-process oracle daemon grids are compared against.
func ComputeDensity(cfg DensityConfig, pts []Vec3, masses []float64) (*DensityResult, error) {
	return density.Compute(cfg, pts, masses)
}

// BlockMesh is the per-block analysis data model (vertices, connectivity,
// per-cell volumes and areas).
type BlockMesh = meshio.BlockMesh

// MergeCanonical combines the per-block meshes of a complete (periodic)
// tessellation into one decomposition-independent global mesh: runs over the
// same particles with different block counts encode byte-identically. See
// internal/meshio for the canonicalization rules.
func MergeCanonical(meshes []*BlockMesh, domain Box, periodic bool) (*BlockMesh, error) {
	return meshio.MergeCanonical(meshes, domain, periodic)
}

// Merger is MergeCanonical's retained workspace, for a caller that merges
// step after step: its Merge reuses the previous call's storage, and the
// merged mesh is a loan, valid until the Merger's next Merge.
type Merger = meshio.Merger

// ParticlesFromPositions wraps raw positions with sequential IDs.
func ParticlesFromPositions(pos []Vec3) []Particle {
	out := make([]Particle, len(pos))
	for i, p := range pos {
		out[i] = Particle{ID: int64(i), Pos: p}
	}
	return out
}

// ParticlesFromSim snapshots the current particle state of a simulation.
func ParticlesFromSim(s *nbody.Simulation) []Particle {
	return ParticlesFromPositions(s.Pos)
}

// CellRecord is a cell as read back from a tess output file.
type CellRecord = voids.CellRecord

// VoidComponent is a connected component of large-volume cells — a
// cosmological void with its Minkowski functionals.
type VoidComponent = voids.Component

// Minkowski holds the functionals and shapefinders of a void.
type Minkowski = voids.Minkowski

// ReadTessFile loads every block of a tess output file.
func ReadTessFile(path string) ([]CellRecord, error) {
	return voids.ReadTessFile(path)
}

// FindVoids thresholds cells by minimum volume and groups the survivors
// into connected components, largest first.
func FindVoids(cells []CellRecord, minVolume float64) []VoidComponent {
	return voids.ConnectedComponents(voids.Threshold(cells, minVolume))
}

// LabelVoids is FindVoids in situ, over a pass's gathered meshes instead of
// a file read back (the paper's Sec. V: "we plan to label connected
// components automatically in situ as well"). minVolume <= 0 uses the mean
// cell volume; the threshold applied is returned beside the components.
func LabelVoids(out *Output, minVolume float64) ([]VoidComponent, float64) {
	return voids.LabelMeshes(out.Meshes, minVolume)
}

// VoidZone is one watershed basin of the Voronoi density field.
type VoidZone = voids.Zone

// WatershedVoid is a void grown by flooding zones up to a density barrier.
type WatershedVoid = voids.WatershedVoid

// FindVoidsWatershed segments the cells into density basins (zones) and
// floods them up to densityBarrier — the ZOBOV/Watershed-Void-Finder
// approach from the paper's background, as an alternative to the global
// volume threshold of FindVoids. barrier 0 returns the unmerged zones.
func FindVoidsWatershed(cells []CellRecord, densityBarrier float64) ([]WatershedVoid, error) {
	zones, err := voids.Watershed(cells)
	if err != nil {
		return nil, err
	}
	return voids.FloodZones(cells, zones, densityBarrier), nil
}
