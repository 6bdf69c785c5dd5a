package diy

import (
	"fmt"
	"os"
)

// Serial block I/O: WriteBlocks produces the same single-file layout as
// CollectiveWrite — payload sections, footer index, trailer — from one
// goroutine with no World. Its one caller is storage.WriteSnapshot, which
// writes particle snapshot files outside any collective step; ReadIndex
// and ReadAllBlocks read both layouts identically.

// WriteBlocks writes one payload section per block into path, followed
// by the footer index and trailer, so the file is readable with
// ReadIndex/ReadAllBlocks. It returns the total file size.
func WriteBlocks(path string, payloads [][]byte) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("diy: create %s: %w", path, err)
	}
	defer f.Close()
	sizes := make([]int64, len(payloads))
	var total int64
	for i, p := range payloads {
		if _, err := f.Write(p); err != nil {
			return 0, fmt.Errorf("diy: write %s: %w", path, err)
		}
		sizes[i] = int64(len(p))
		total += sizes[i]
	}
	foot := footer(sizes)
	if _, err := f.Write(foot); err != nil {
		return 0, fmt.Errorf("diy: footer write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("diy: sync %s: %w", path, err)
	}
	return total + int64(len(foot)), nil
}
