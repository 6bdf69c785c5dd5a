package core

import (
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/obs"
)

// Output is the gathered result of a full tessellation pass.
type Output struct {
	Meshes []*meshio.BlockMesh // indexed by rank
	Counts CellCounts          // global totals
	Timing Timing              // slowest-rank per phase
	Ghosts int                 // total ghost particles exchanged
	// Obs is the observability snapshot of the pass — per-rank phase spans,
	// comm counters, and pipeline metrics — when Config.Recorder was set
	// (nil otherwise).
	Obs *obs.Snapshot
}

// Run executes a complete parallel tessellation: it decomposes the domain
// into numBlocks blocks, partitions the particles, spawns one rank per
// block, and runs the tess pipeline collectively, writing where opts say
// (WithOutputPath; nowhere by default). It is the standalone-mode entry
// point, implemented as a single-step session (OpenSession, one Step,
// Close); in situ callers that tessellate many snapshots keep the Session
// open instead and amortize the setup across steps. Each rank's compute
// phase additionally fans out over Config.Workers goroutines (by default
// GOMAXPROCS divided among the numBlocks concurrent ranks), forming the
// ranks x workers hierarchy described in DESIGN.md.
//
// The returned Output owns its memory: the session it briefly lived in is
// closed before Run returns, so nothing will overwrite it.
func Run(cfg Config, particles []diy.Particle, numBlocks int, opts ...StepOption) (*Output, error) {
	return runOnce(cfg, particles, numBlocks, numBlocks, opts)
}

// RunTimed is Run with one rank in flight at compute: the ranks exchange
// and write together, but take turns at the compute phase, each with the
// whole machine. Timing then reports the slowest rank per phase as a
// machine with one dedicated core per rank would observe it — what Table II
// and Figure 10 plot — on a host with fewer cores than ranks, where timing
// concurrent computes would charge every rank for its neighbours' CPU time.
// The output is Run's, byte for byte.
func RunTimed(cfg Config, particles []diy.Particle, numBlocks int, opts ...StepOption) (*Output, error) {
	return runOnce(cfg, particles, numBlocks, 1, opts)
}

// runOnce is one step of a session that keeps inFlight of its numBlocks
// ranks computing at once.
func runOnce(cfg Config, particles []diy.Particle, numBlocks, inFlight int, opts []StepOption) (*Output, error) {
	s, err := openSession(cfg, numBlocks, inFlight)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// Close ends the session, so no later Step can overwrite the loan.
	return s.Step(particles, opts...)
}

// Clone returns a deep copy of the output that owns all of its memory,
// detaching it from the session loan it came from (see Session). The
// observability snapshot is immutable once built and is shared, not copied.
func (o *Output) Clone() *Output {
	out := *o
	out.Meshes = make([]*meshio.BlockMesh, len(o.Meshes))
	for i, m := range o.Meshes {
		if m != nil {
			out.Meshes[i] = m.Clone()
		}
	}
	return &out
}

// CellSummary is the per-cell view used by the accuracy study and the
// statistics harnesses: one row per kept cell, identified by particle ID.
type CellSummary struct {
	ID       int64
	Site     geom.Vec3
	Volume   float64
	Area     float64
	Faces    int
	Complete bool
}

// Summaries flattens gathered meshes into per-cell rows.
func (o *Output) Summaries() []CellSummary {
	var out []CellSummary
	for _, m := range o.Meshes {
		if m == nil {
			continue
		}
		for i := range m.Particles {
			lo, hi := m.Faces(i)
			out = append(out, CellSummary{
				ID:       m.ParticleIDs[i],
				Site:     m.Particles[i],
				Volume:   m.Volumes[i],
				Area:     m.Areas[i],
				Faces:    hi - lo,
				Complete: m.Complete[i],
			})
		}
	}
	return out
}

// Volumes returns all kept cell volumes.
func (o *Output) Volumes() []float64 {
	var out []float64
	for _, m := range o.Meshes {
		if m == nil {
			continue
		}
		out = append(out, m.Volumes...)
	}
	return out
}

// AccuracyReport compares a parallel run against a reference (serial) run,
// reproducing Table I's "matching cells" metric: a cell matches when the
// reference contains the same particle ID with the same face count and a
// volume equal to relative tolerance tol.
type AccuracyReport struct {
	ReferenceCells int
	ParallelCells  int
	Matching       int
	// Accuracy is Matching / ReferenceCells.
	Accuracy float64
}

// CompareAccuracy matches parallel cells against reference cells by ID.
func CompareAccuracy(reference, parallel []CellSummary, tol float64) AccuracyReport {
	if tol <= 0 {
		tol = 1e-6
	}
	ref := make(map[int64]CellSummary, len(reference))
	for _, c := range reference {
		ref[c.ID] = c
	}
	rep := AccuracyReport{ReferenceCells: len(reference), ParallelCells: len(parallel)}
	for _, c := range parallel {
		r, ok := ref[c.ID]
		if !ok {
			continue
		}
		dv := c.Volume - r.Volume
		if dv < 0 {
			dv = -dv
		}
		if c.Faces == r.Faces && dv <= tol*r.Volume {
			rep.Matching++
		}
	}
	if rep.ReferenceCells > 0 {
		rep.Accuracy = float64(rep.Matching) / float64(rep.ReferenceCells)
	}
	return rep
}
