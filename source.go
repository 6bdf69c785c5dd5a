package tess

import (
	"os"

	"repro/internal/storage"
)

// Out-of-core snapshot sources and the checkpoint probe: the public
// surface of internal/storage. A Source supplies one snapshot as
// an ordered sequence of particle chunks; Session.StepFrom consumes it
// chunk by chunk, so a windowed FileSource tessellates boxes whose
// particle sets never fit in memory at once while producing bytes
// identical to an inline Step over the same particles.

// Source supplies one snapshot's particles as an ordered sequence of
// chunks; see FileSource (block-streamed with a bounded resident
// window).
type Source = storage.Source

// SourceStats is a source's load/evict accounting — the proof that a
// windowed run never had the full particle set resident.
type SourceStats = storage.SourceStats

// FileSource streams a snapshot file written by WriteSnapshot chunk by
// chunk, holding at most its window of chunks resident (released
// chunks are evicted least-recently-used). Close it when done.
type FileSource = storage.FileSource

// OpenFileSource opens a snapshot file written by WriteSnapshot with a
// resident-window budget of window chunks (<= 0 means unbounded).
func OpenFileSource(path string, window int) (*FileSource, error) {
	return storage.OpenFileSource(path, window)
}

// OpenFileSourceIn is OpenFileSource for the file name names under root:
// no component of name, a symlink included, may lead outside root.
func OpenFileSourceIn(root *os.Root, name string, window int) (*FileSource, error) {
	return storage.OpenFileSourceIn(root, name, window)
}

// WriteSnapshot writes ps as a chunked snapshot file readable by
// OpenFileSource, split into contiguous equal runs in slice order (so a
// FileSource over the file supplies exactly the particles of ps, in
// order).
func WriteSnapshot(path string, ps []Particle, chunks int) error {
	return storage.WriteSnapshot(path, ps, chunks)
}
