package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// A checkpoint directory holds one file, manifest.json: the Manifest,
// written to a temp file and renamed into place, so the rename is the
// commit and a manifest that exists is a complete checkpoint; a directory
// without one has none (Load's error wraps fs.ErrNotExist). A session's geometry is recomputed from each step's
// particles, so what resumes it is its decomposition and its counters, and
// the decomposition is recorded by what decides it rather than by what it
// contains: a regular grid by the domain, block count and periodicity the
// manifest already names, an RCB tree by its cuts. The file's size follows
// the block count, never the mesh.

// ManifestVersion is the one checkpoint format version this package
// writes and reads.
const ManifestVersion = 3

// Manifest is the whole checkpoint and its compatibility fingerprint:
// Resume validates the caller's config against it instead of silently
// producing a mesh the uninterrupted run would not have.
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
	// Cuts are an RCB decomposition's NumBlocks-1 split coordinates in
	// pre-order, which diy.ReplayRCB rebuilds it from. A grid has none:
	// diy.Decompose rebuilds it from Domain, NumBlocks and Periodic.
	Cuts []float64 `json:"cuts,omitempty"`
	// WarmSites/ColdSites are the per-rank cumulative warm/cold site
	// counters, so WarmStats stays continuous across a resume.
	WarmSites []int64 `json:"warm_sites"`
	ColdSites []int64 `json:"cold_sites"`
}

const manifestName = "manifest.json"

// Save writes man into dir, creating it if needed; see SaveIn.
func Save(dir string, man Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: checkpoint dir: %w", err)
	}
	root, err := os.OpenRoot(dir)
	if err != nil {
		return fmt.Errorf("storage: checkpoint dir: %w", err)
	}
	defer root.Close()
	return SaveIn(root, man)
}

// SaveIn writes man, at the current version, into the directory dir
// refers to. The manifest is written and synced under a temp name,
// renamed into place, and the directory synced, so a crash at any point —
// power loss included — leaves dir with the previous complete checkpoint,
// or none. A failed SaveIn removes its temp file and leaves the previous
// checkpoint as it was.
func SaveIn(dir *os.Root, man Manifest) error {
	man.Version = ManifestVersion
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: manifest: %w", err)
	}
	tmp := manifestName + ".tmp"
	f, err := dir.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: writing manifest: %w", err)
	}
	_, err = f.Write(append(raw, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// os.Root has no Rename before Go 1.25: the rename goes by the
		// root's name, between two files just resolved through it.
		err = os.Rename(filepath.Join(dir.Name(), tmp), filepath.Join(dir.Name(), manifestName))
	}
	if err != nil {
		dir.Remove(tmp)
		return fmt.Errorf("storage: writing manifest: %w", err)
	}
	// The rename is durable only once the directory entry is.
	d, err := dir.Open(".")
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("storage: syncing checkpoint dir: %w", err)
	}
	return nil
}

// Load reads the committed checkpoint in dir; see LoadIn.
func Load(dir string) (*Manifest, error) {
	root, err := os.OpenRoot(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: no checkpoint in %s: %w", dir, err)
	}
	defer root.Close()
	return LoadIn(root)
}

// LoadIn reads the committed checkpoint in the directory dir refers to;
// a directory without one is an error wrapping fs.ErrNotExist. The
// manifest is outside input — a daemon is handed the directory by a job spec — so everything a
// resumed session would trust about it alone is checked here, once: a
// manifest Load returns has the current version, at least one step and one
// block, a known decomposition kind with its count of cuts (n-1 for RCB,
// none for a grid), and one non-negative counter per block. Whether the
// cuts fit their boxes is diy.ReplayRCB's to check.
// (Domain, ghost and cuts need no finiteness check: JSON has no NaN or Inf,
// and an out-of-range literal already fails to parse.)
func LoadIn(dir *os.Root) (*Manifest, error) {
	f, err := dir.Open(manifestName)
	if err != nil {
		return nil, fmt.Errorf("storage: no checkpoint in %s: %w", dir.Name(), err)
	}
	raw, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("storage: manifest: %w", err)
	}
	man := &Manifest{}
	if err := json.Unmarshal(raw, man); err != nil {
		return nil, fmt.Errorf("storage: manifest: %w", err)
	}
	if man.Version != ManifestVersion {
		return nil, fmt.Errorf("storage: checkpoint version %d, want %d", man.Version, ManifestVersion)
	}
	if man.Steps < 1 || man.NumBlocks < 1 {
		return nil, fmt.Errorf("storage: manifest records %d steps over %d blocks, want at least 1 of each", man.Steps, man.NumBlocks)
	}
	wantCuts := 0
	switch man.Decomp {
	case "grid":
	case "rcb":
		wantCuts = man.NumBlocks - 1
	default:
		return nil, fmt.Errorf("storage: manifest names unknown decomposition kind %q", man.Decomp)
	}
	if len(man.Cuts) != wantCuts {
		return nil, fmt.Errorf("storage: manifest holds %d cuts for %d %s blocks, want %d", len(man.Cuts), man.NumBlocks, man.Decomp, wantCuts)
	}
	if err := checkCounters("warm_sites", man.WarmSites, man.NumBlocks); err != nil {
		return nil, err
	}
	if err := checkCounters("cold_sites", man.ColdSites, man.NumBlocks); err != nil {
		return nil, err
	}
	return man, nil
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
