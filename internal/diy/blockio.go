package diy

import (
	"fmt"
	"io"
	"os"

	"repro/internal/comm"
	"repro/internal/wire"
)

// Block I/O: all ranks write their serialized block into a single shared
// file, each at its own offset, followed by a footer index (offset and size
// per block) and a fixed-size trailer locating the footer. This mirrors
// DIY's single-file collective output that tess uses for its analysis
// results.
//
// File layout:
//
//	[block 0 bytes][block 1 bytes]...[block P-1 bytes]
//	[footer: P x (offset uint64, size uint64)]
//	[trailer: footerOffset uint64, numBlocks uint64, magic uint64]

const blockIOMagic = 0x7465737342494f31 // "tessBIO1"

// CollectiveWrite writes each rank's payload into path. All ranks must call
// it collectively; every rank writes its own section concurrently (the
// stand-in for MPI-IO collective writes). It returns the total file size in
// bytes on rank 0 and 0 elsewhere.
func CollectiveWrite(w *comm.World, rank int, path string, payload []byte) (int64, error) {
	sizes := comm.Allgather(w, rank, int64(len(payload)))
	offsets := make([]int64, len(sizes))
	var total int64
	for i, s := range sizes {
		offsets[i] = total
		total += s
	}

	// Rank 0 creates and sizes the file; everyone else waits.
	if rank == 0 {
		f, err := os.Create(path)
		if err != nil {
			// Propagate the failure to all ranks via the barrier value.
			comm.Allgather(w, rank, false)
			return 0, fmt.Errorf("diy: create %s: %w", path, err)
		}
		if err := f.Truncate(total); err != nil {
			f.Close()
			comm.Allgather(w, rank, false)
			return 0, fmt.Errorf("diy: truncate %s: %w", path, err)
		}
		f.Close()
		comm.Allgather(w, rank, true)
	} else {
		oks := comm.Allgather(w, rank, true)
		if !oks[0] {
			return 0, fmt.Errorf("diy: rank 0 failed to create %s", path)
		}
	}

	// Concurrent positioned writes.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		comm.Allgather(w, rank, false)
		return 0, fmt.Errorf("diy: open %s: %w", path, err)
	}
	writeErr := error(nil)
	if len(payload) > 0 {
		if _, err := f.WriteAt(payload, offsets[rank]); err != nil {
			writeErr = err
		}
	}
	f.Close()
	oks := comm.Allgather(w, rank, writeErr == nil)
	for r, ok := range oks {
		if !ok {
			if writeErr != nil {
				return 0, fmt.Errorf("diy: write %s: %w", path, writeErr)
			}
			return 0, fmt.Errorf("diy: rank %d failed writing %s", r, path)
		}
	}

	// Rank 0 appends the footer.
	if rank != 0 {
		return 0, nil
	}
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, fmt.Errorf("diy: footer open %s: %w", path, err)
	}
	defer f.Close()
	foot := footer(sizes)
	if _, err := f.Write(foot); err != nil {
		return 0, fmt.Errorf("diy: footer write %s: %w", path, err)
	}
	return total + int64(len(foot)), nil
}

const (
	footerEntrySize = 16 // offset, size
	trailerSize     = 24 // footer offset, block count, magic
)

// footer builds the index and trailer that follow back-to-back sections
// of the given sizes.
func footer(sizes []int64) []byte {
	w := wire.NewWriter(footerEntrySize*len(sizes) + trailerSize)
	var off int64
	for _, s := range sizes {
		w.I64(off)
		w.I64(s)
		off += s
	}
	w.I64(off)
	w.U64(uint64(len(sizes)))
	w.U64(blockIOMagic)
	return w.Bytes()
}

// BlockIndex describes the sections of a block file.
type BlockIndex struct {
	Offsets []int64
	Sizes   []int64
}

// ReadIndex reads and validates the footer index of a block file.
func ReadIndex(path string) (*BlockIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadIndexFile(f)
}

// ReadIndexFile is ReadIndex over an open block file.
func ReadIndexFile(f *os.File) (*BlockIndex, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	idx, err := readIndex(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("diy: %s: %w", f.Name(), err)
	}
	return idx, nil
}

// readIndex parses the trailer and footer of a block file of the given
// size. Nothing in the file is trusted: the block count is checked
// against the file size before the index is allocated, and every section
// must lie inside [0, footer offset], so a reader sizing a buffer from
// the index never allocates more than the file holds.
func readIndex(f io.ReaderAt, size int64) (*BlockIndex, error) {
	if size < trailerSize {
		return nil, fmt.Errorf("too small for a block file (%d bytes)", size)
	}
	var trailer [trailerSize]byte
	if _, err := f.ReadAt(trailer[:], size-trailerSize); err != nil {
		return nil, err
	}
	r := wire.NewReader(trailer[:])
	footerOff, n, magic := r.I64(), r.U64(), r.U64()
	if magic != blockIOMagic {
		return nil, fmt.Errorf("not a block file (bad magic %#x)", magic)
	}
	if n > uint64(size-trailerSize)/footerEntrySize || footerOff != size-trailerSize-int64(n)*footerEntrySize {
		return nil, fmt.Errorf("inconsistent footer (%d blocks, footer at %d, file size %d)", n, footerOff, size)
	}
	entries := make([]byte, int(n)*footerEntrySize)
	if _, err := f.ReadAt(entries, footerOff); err != nil {
		return nil, err
	}
	r = wire.NewReader(entries)
	idx := &BlockIndex{Offsets: make([]int64, n), Sizes: make([]int64, n)}
	for i := range idx.Offsets {
		off, sz := r.U64(), r.U64()
		if payload := uint64(footerOff); off > payload || sz > payload-off {
			return nil, fmt.Errorf("block %d: offset %d size %d lies outside the %d payload bytes", i, off, sz, payload)
		}
		idx.Offsets[i], idx.Sizes[i] = int64(off), int64(sz)
	}
	return idx, nil
}

// ReadAllBlocks reads every block section of a block file.
func ReadAllBlocks(path string) ([][]byte, error) {
	idx, err := ReadIndex(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([][]byte, len(idx.Offsets))
	for i := range out {
		out[i] = make([]byte, idx.Sizes[i])
		if _, err := f.ReadAt(out[i], idx.Offsets[i]); err != nil && !(err == io.EOF && idx.Sizes[i] == 0) {
			return nil, err
		}
	}
	return out, nil
}
