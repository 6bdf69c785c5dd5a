// Package storage is the out-of-core layer of the tessellation
// pipeline: snapshot particle sources that stream block-windowed chunks
// through the diy single-file block layout instead of holding a whole
// snapshot resident, and the on-disk checkpoint format that lets a
// session resume at step N instead of rerunning the simulation. A
// checkpoint is one file, manifest.json, holding what decides the
// session's bytes: its step count, its configuration fingerprint, its
// counters and, for an RCB session, the cuts its decomposition is rebuilt
// from (checkpoint.go).
//
// A Source supplies one snapshot as an ordered sequence of particle
// chunks. Consumers (core.Session.StepFrom) load a chunk, partition its
// particles into per-rank sends, and release it before touching the
// next, so the resident set is bounded by the source's window rather
// than the snapshot size. Chunk order is part of the contract: the
// concatenation of all chunks IS the snapshot, in snapshot order, which
// is what makes a windowed FileSource byte-identical to an inline
// SliceSource over the same particles.
package storage

import (
	"fmt"

	"repro/internal/diy"
)

// Source supplies one snapshot's particles as an ordered sequence of
// chunks. Implementations need not be safe for concurrent use; the
// session consumes chunks sequentially.
type Source interface {
	// Chunks returns the number of chunks in the snapshot.
	Chunks() int
	// Chunk returns chunk i's particles. The slice is owned by the
	// source and valid only until Release(i); callers must not retain
	// or mutate it.
	Chunk(i int) ([]diy.Particle, error)
	// Release declares chunk i consumed, allowing the source to evict
	// it from its resident window.
	Release(i int)
	// Stats reports the source's load/evict accounting.
	Stats() SourceStats
}

// SourceStats is the accounting every Source keeps: it is how the
// out-of-core tests *prove* the full particle set was never resident
// (PeakResidentParticles < TotalParticles) rather than assuming it.
type SourceStats struct {
	// Loads counts chunk decodes (a chunk re-loaded after eviction
	// counts again).
	Loads int
	// Evictions counts chunks dropped from the resident window.
	Evictions int
	// PeakResidentChunks is the largest number of simultaneously
	// resident chunks.
	PeakResidentChunks int
	// PeakResidentParticles is the largest number of simultaneously
	// resident particles.
	PeakResidentParticles int
	// TotalParticles is the snapshot's full particle count.
	TotalParticles int
}

// SliceSource adapts an in-memory particle slice to the Source
// interface: one chunk, permanently resident. It is the path every
// inline Step takes, so test boxes and memory-exceeding boxes share one
// code path.
type SliceSource struct {
	parts []diy.Particle
	stats SourceStats
}

// NewSliceSource wraps ps (not copied) as a single-chunk Source.
func NewSliceSource(ps []diy.Particle) *SliceSource {
	return &SliceSource{
		parts: ps,
		stats: SourceStats{
			Loads:                 1,
			PeakResidentChunks:    1,
			PeakResidentParticles: len(ps),
			TotalParticles:        len(ps),
		},
	}
}

// Chunks returns 1: the whole slice is one chunk.
func (s *SliceSource) Chunks() int { return 1 }

// Chunk returns the wrapped slice.
func (s *SliceSource) Chunk(i int) ([]diy.Particle, error) {
	if i != 0 {
		return nil, fmt.Errorf("storage: chunk %d out of range [0, 1)", i)
	}
	return s.parts, nil
}

// Release is a no-op: the caller owns the backing slice.
func (s *SliceSource) Release(int) {}

// Stats reports the (trivial) accounting of the inline source.
func (s *SliceSource) Stats() SourceStats { return s.stats }
