package storage

import (
	"fmt"
	"os"

	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/wire"
)

// Snapshot files reuse the diy single-file block layout (payload
// sections + footer index + trailer), with one particle chunk per
// section. A chunk payload is a particle-record section:
//
//	magic  uint64 ("tessSNP1")
//	count  uint64
//	per particle: id int64, pos 3 x float64
//
// The fixed-width header means a FileSource can learn every chunk's
// particle count from 16-byte reads at open time, without decoding any
// chunk.

const snapMagic uint64 = 0x74657373534e5031 // "tessSNP1"

const recHeaderSize = 16
const recSize = 8 + 24

// WriteSnapshot writes ps as a snapshot file of the given number of
// chunks, split into contiguous equal-length runs in slice order (the
// order contract of Source).
func WriteSnapshot(path string, ps []diy.Particle, chunks int) error {
	if chunks <= 0 {
		return fmt.Errorf("storage: cannot write snapshot with %d chunks", chunks)
	}
	payloads := make([][]byte, chunks)
	for c := 0; c < chunks; c++ {
		lo := len(ps) * c / chunks
		hi := len(ps) * (c + 1) / chunks
		payloads[c] = encodeRecords(ps[lo:hi])
	}
	_, err := diy.WriteBlocks(path, payloads)
	return err
}

// encodeRecords serializes one particle-record section.
func encodeRecords(ps []diy.Particle) []byte {
	w := wire.NewWriter(recHeaderSize + recSize*len(ps))
	w.U64(snapMagic)
	w.U64(uint64(len(ps)))
	for _, p := range ps {
		w.I64(p.ID)
		w.F64(p.Pos.X)
		w.F64(p.Pos.Y)
		w.F64(p.Pos.Z)
	}
	return w.Bytes()
}

// recordCount reads a section's header and returns its particle count,
// after checking the magic and that a section of sectionSize bytes holds
// exactly that many records.
func recordCount(r *wire.Reader, sectionSize int64) int {
	if got := r.U64(); got != snapMagic {
		r.Fail("bad magic %#x", got)
	}
	n := r.U64()
	if body := uint64(max(sectionSize-recHeaderSize, 0)); body%recSize != 0 || n != body/recSize {
		r.Fail("size %d does not match %d particles", sectionSize, n)
	}
	if r.Err() != nil {
		return 0
	}
	return int(n)
}

// decodeRecords parses one particle-record section.
func decodeRecords(data []byte) ([]diy.Particle, error) {
	r := wire.NewReader(data)
	ps := make([]diy.Particle, recordCount(r, int64(len(data))))
	for i := range ps {
		ps[i] = diy.Particle{ID: r.I64(), Pos: geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}}
	}
	return ps, r.Done()
}

// FileSource streams a snapshot file chunk by chunk with a bounded
// resident window: at most window chunks are decoded at once, and
// released chunks are evicted least-recently-used when the window is
// full. A pinned chunk (handed out by Chunk, not yet Released) is never
// evicted, so the window must be at least the number of chunks the
// consumer holds concurrently (the session holds one).
type FileSource struct {
	path   string
	f      *os.File
	idx    *diy.BlockIndex
	counts []int // per-chunk particle counts, from the fixed headers
	window int

	resident map[int]*residentChunk
	clock    int
	stats    SourceStats
}

type residentChunk struct {
	parts   []diy.Particle
	pinned  bool
	lastUse int
}

// OpenFileSource opens a snapshot file written by WriteSnapshot. window
// is the resident-window budget in chunks; window <= 0 (or >= the chunk
// count) means the whole snapshot may be resident. Chunk particle
// counts are read from the fixed headers, so opening touches 16 bytes
// per chunk, not the payloads.
func OpenFileSource(path string, window int) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return newFileSource(f, window)
}

// OpenFileSourceIn is OpenFileSource for the file name names under root:
// no component of name, a symlink included, may lead outside root.
func OpenFileSourceIn(root *os.Root, name string, window int) (*FileSource, error) {
	f, err := root.Open(name)
	if err != nil {
		return nil, err
	}
	return newFileSource(f, window)
}

// newFileSource reads the open snapshot file's index and chunk headers;
// it owns f, closing it on failure.
func newFileSource(f *os.File, window int) (*FileSource, error) {
	path := f.Name()
	idx, err := diy.ReadIndexFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &FileSource{
		path:     path,
		f:        f,
		idx:      idx,
		counts:   make([]int, len(idx.Offsets)),
		window:   window,
		resident: make(map[int]*residentChunk),
	}
	var hdr [recHeaderSize]byte
	for i := range idx.Offsets {
		h := hdr[:min(idx.Sizes[i], recHeaderSize)]
		if _, err := f.ReadAt(h, idx.Offsets[i]); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: %s chunk %d header: %w", path, i, err)
		}
		r := wire.NewReader(h)
		s.counts[i] = recordCount(r, idx.Sizes[i])
		if err := r.Err(); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: %s chunk %d: %w", path, i, err)
		}
		s.stats.TotalParticles += s.counts[i]
	}
	return s, nil
}

// Chunks returns the snapshot's chunk count.
func (s *FileSource) Chunks() int { return len(s.counts) }

// TotalParticles returns the snapshot's full particle count (known from
// the chunk headers without decoding any chunk).
func (s *FileSource) TotalParticles() int { return s.stats.TotalParticles }

// Chunk loads (or returns the resident) chunk i and pins it until
// Release(i).
func (s *FileSource) Chunk(i int) ([]diy.Particle, error) {
	if i < 0 || i >= len(s.counts) {
		return nil, fmt.Errorf("storage: chunk %d out of range [0, %d)", i, len(s.counts))
	}
	s.clock++
	if rc, ok := s.resident[i]; ok {
		rc.pinned = true
		rc.lastUse = s.clock
		return rc.parts, nil
	}
	s.evictFor(1)
	buf := make([]byte, s.idx.Sizes[i])
	if _, err := s.f.ReadAt(buf, s.idx.Offsets[i]); err != nil {
		return nil, fmt.Errorf("storage: %s chunk %d: %w", s.path, i, err)
	}
	parts, err := decodeRecords(buf)
	if err != nil {
		return nil, fmt.Errorf("storage: %s chunk %d: %w", s.path, i, err)
	}
	s.resident[i] = &residentChunk{parts: parts, pinned: true, lastUse: s.clock}
	s.stats.Loads++
	s.noteResident()
	return parts, nil
}

// Release unpins chunk i, making it evictable.
func (s *FileSource) Release(i int) {
	if rc, ok := s.resident[i]; ok {
		rc.pinned = false
	}
}

// Stats reports the source's accounting.
func (s *FileSource) Stats() SourceStats { return s.stats }

// Close releases the file handle and drops every resident chunk.
func (s *FileSource) Close() error {
	s.resident = make(map[int]*residentChunk)
	return s.f.Close()
}

// evictFor evicts least-recently-used unpinned chunks until loading n
// more chunks would fit the window. With no window (<= 0) it is a
// no-op; if every resident chunk is pinned the load proceeds over
// budget (the caller is holding more chunks than the window allows,
// which the peak accounting will expose).
func (s *FileSource) evictFor(n int) {
	if s.window <= 0 {
		return
	}
	for len(s.resident)+n > s.window {
		victim, oldest := -1, 0
		for i, rc := range s.resident {
			if rc.pinned {
				continue
			}
			if victim < 0 || rc.lastUse < oldest {
				victim, oldest = i, rc.lastUse
			}
		}
		if victim < 0 {
			return
		}
		delete(s.resident, victim)
		s.stats.Evictions++
	}
}

func (s *FileSource) noteResident() {
	if n := len(s.resident); n > s.stats.PeakResidentChunks {
		s.stats.PeakResidentChunks = n
	}
	parts := 0
	for _, rc := range s.resident {
		parts += len(rc.parts)
	}
	if parts > s.stats.PeakResidentParticles {
		s.stats.PeakResidentParticles = parts
	}
}
