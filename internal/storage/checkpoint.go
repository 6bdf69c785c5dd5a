package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/diy"
)

// Checkpoint directory layout:
//
//	decomp.bin    — diy.Decomposition.MarshalBinary bytes
//	manifest.json — Manifest, written LAST via rename
//
// A session's geometry is recomputed from each step's particles, so what
// resumes it is its decomposition and its counters: the checkpoint's size
// follows the block count, never the mesh. The manifest is the commit
// record: it is written atomically (temp file + rename) after decomp.bin
// is on disk, so HasCheckpoint(dir) — "manifest exists" — implies the
// checkpoint is complete. A session's decomposition never changes, so
// every checkpoint after its first rewrites an identical decomp.bin and
// the manifest rename is the only state change.

// ManifestVersion is the one checkpoint format version this package
// writes and reads.
const ManifestVersion = 2

// Manifest is the checkpoint's commit record and compatibility
// fingerprint: Resume validates the caller's config against it instead
// of silently producing a mesh the uninterrupted run would not have.
type Manifest struct {
	Version   int  `json:"version"`
	Steps     int  `json:"steps"`
	NumBlocks int  `json:"num_blocks"`
	Periodic  bool `json:"periodic"`
	// Domain is min xyz then max xyz.
	Domain [6]float64 `json:"domain"`
	Ghost  float64    `json:"ghost"`
	// Decomp names the decomposition kind ("grid" or "rcb").
	Decomp string `json:"decomp"`
	// WarmSites/ColdSites are the per-rank cumulative warm/cold site
	// counters, so WarmStats stays continuous across a resume.
	WarmSites []int64 `json:"warm_sites"`
	ColdSites []int64 `json:"cold_sites"`
}

// Checkpoint is one complete session checkpoint in memory.
type Checkpoint struct {
	Manifest Manifest
	// Decomp is the session's decomposition, Manifest.NumBlocks blocks.
	Decomp *diy.Decomposition
}

const (
	manifestName = "manifest.json"
	decompName   = "decomp.bin"
)

// HasCheckpoint reports whether dir holds a committed checkpoint.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Save writes c into dir, creating it if needed. Both files land under
// temp names first and the manifest is renamed into place last, so a
// crash at any point leaves dir either without a committed manifest or
// with the previous complete checkpoint intact.
func Save(dir string, c *Checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: checkpoint dir: %w", err)
	}
	decomp, err := c.Decomp.MarshalBinary()
	if err != nil {
		return fmt.Errorf("storage: checkpoint decomposition: %w", err)
	}
	if err := writeRenamed(dir, decompName, func(path string) error {
		_, err := diy.WriteBlocks(path, [][]byte{decomp})
		return err
	}); err != nil {
		return err
	}
	man := c.Manifest
	man.Version = ManifestVersion
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: manifest: %w", err)
	}
	return writeRenamed(dir, manifestName, func(path string) error {
		return os.WriteFile(path, append(raw, '\n'), 0o644)
	})
}

// writeRenamed produces dir/name via a temp file + rename so readers
// never observe a half-written artifact.
func writeRenamed(dir, name string, write func(path string) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := write(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, name))
}

// Load reads the committed checkpoint in dir. Both files are outside
// input — a daemon is handed the directory by a job spec — so everything
// a resumed session would trust is checked here, once: a checkpoint Load
// returns has the current version, at least one step and one block, a
// known decomposition kind, one non-negative counter per block, and a
// decomposition of that many blocks.
// (Domain and ghost need no finiteness check: JSON has no NaN or Inf, and
// an out-of-range literal already fails to parse.)
func Load(dir string) (*Checkpoint, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("storage: no checkpoint in %s: %w", dir, err)
	}
	c := &Checkpoint{}
	man := &c.Manifest
	if err := json.Unmarshal(raw, man); err != nil {
		return nil, fmt.Errorf("storage: manifest: %w", err)
	}
	if man.Version != ManifestVersion {
		return nil, fmt.Errorf("storage: checkpoint version %d, want %d", man.Version, ManifestVersion)
	}
	if man.Steps < 1 || man.NumBlocks < 1 {
		return nil, fmt.Errorf("storage: manifest records %d steps over %d blocks, want at least 1 of each", man.Steps, man.NumBlocks)
	}
	if man.Decomp != "grid" && man.Decomp != "rcb" {
		return nil, fmt.Errorf("storage: manifest names unknown decomposition kind %q", man.Decomp)
	}
	if err := checkCounters("warm_sites", man.WarmSites, man.NumBlocks); err != nil {
		return nil, err
	}
	if err := checkCounters("cold_sites", man.ColdSites, man.NumBlocks); err != nil {
		return nil, err
	}
	decomp, err := diy.ReadAllBlocks(filepath.Join(dir, decompName))
	if err != nil {
		return nil, err
	}
	if len(decomp) != 1 {
		return nil, fmt.Errorf("storage: %s holds %d sections, want 1", decompName, len(decomp))
	}
	if c.Decomp, err = diy.UnmarshalDecomposition(decomp[0]); err != nil {
		return nil, err
	}
	if n := c.Decomp.NumBlocks(); n != man.NumBlocks {
		return nil, fmt.Errorf("storage: %s has %d blocks, manifest says %d", decompName, n, man.NumBlocks)
	}
	return c, nil
}

// checkCounters holds a manifest counter slice to one non-negative entry
// per block.
func checkCounters(name string, counts []int64, blocks int) error {
	if len(counts) != blocks {
		return fmt.Errorf("storage: manifest %s holds %d counters for %d blocks", name, len(counts), blocks)
	}
	for r, n := range counts {
		if n < 0 {
			return fmt.Errorf("storage: manifest %s[%d] = %d is negative", name, r, n)
		}
	}
	return nil
}
