package storage

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/diy"
	"repro/internal/geom"
)

// Checkpoint directory layout:
//
//	decomp.bin    — diy.Decomposition.MarshalBinary bytes
//	prev.bin      — per-rank warm-baseline site sets (diy block layout,
//	                one section per rank, each: magic, count, then
//	                id int64 + pos 3 x float64 sorted by id)
//	meshes.bin    — per-block mesh-v2 payloads of the checkpointed step
//	                (diy block layout; opaque bytes to this package)
//	manifest.json — Manifest, written LAST via rename
//
// The manifest is the commit record: it is written atomically (temp
// file + rename) after every other artifact is on disk, so
// HasCheckpoint(dir) — "manifest exists" — implies the checkpoint is
// complete. A crash mid-checkpoint leaves either the previous complete
// checkpoint (stale manifest, untouched until the new one commits —
// artifacts are written to temp names and renamed too) or no manifest.

// ManifestVersion is the checkpoint format version this package writes.
const ManifestVersion = 1

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
	// Rebalances counts warm re-decompositions up to the checkpoint.
	Rebalances int `json:"rebalances"`
	// LastImbalance is the imbalance ratio observed at the
	// checkpointed step (feeds the next step's rebalance decision).
	LastImbalance float64 `json:"last_imbalance"`
	// WarmSites/ColdSites are the per-rank cumulative warm/cold site
	// counters, so WarmStats stays continuous across a resume.
	WarmSites []int64 `json:"warm_sites"`
	ColdSites []int64 `json:"cold_sites"`
}

// Checkpoint is one complete session checkpoint in memory.
type Checkpoint struct {
	Manifest Manifest
	// Decomp is the marshaled decomposition (diy.MarshalBinary).
	Decomp []byte
	// Prev holds each rank's warm-baseline sites (id -> position).
	Prev []map[int64]geom.Vec3
	// Meshes holds each block's encoded mesh at the checkpointed step.
	Meshes [][]byte
}

const (
	manifestName = "manifest.json"
	decompName   = "decomp.bin"
	prevName     = "prev.bin"
	meshesName   = "meshes.bin"
)

// HasCheckpoint reports whether dir holds a committed checkpoint.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Save writes c into dir, creating it if needed. Artifacts land under
// temp names first and the manifest is renamed into place last, so a
// crash at any point leaves dir either without a committed manifest or
// with the previous complete checkpoint intact.
func Save(dir string, c *Checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: checkpoint dir: %w", err)
	}
	if err := writeRenamed(dir, decompName, func(path string) error {
		_, err := diy.WriteBlocks(path, [][]byte{c.Decomp})
		return err
	}); err != nil {
		return err
	}
	prev := make([][]byte, len(c.Prev))
	for i, m := range c.Prev {
		prev[i] = encodeSites(m)
	}
	if err := writeRenamed(dir, prevName, func(path string) error {
		_, err := diy.WriteBlocks(path, prev)
		return err
	}); err != nil {
		return err
	}
	if err := writeRenamed(dir, meshesName, func(path string) error {
		_, err := diy.WriteBlocks(path, c.Meshes)
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

// LoadManifest reads just the committed manifest in dir — the cheap
// compatibility probe for deciding whether a checkpoint is resumable
// without staging its meshes.
func LoadManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("storage: no checkpoint in %s: %w", dir, err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return Manifest{}, fmt.Errorf("storage: manifest: %w", err)
	}
	if man.Version != ManifestVersion {
		return Manifest{}, fmt.Errorf("storage: checkpoint version %d, want %d", man.Version, ManifestVersion)
	}
	return man, nil
}

// Load reads the committed checkpoint in dir.
func Load(dir string) (*Checkpoint, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{Manifest: man}
	decomp, err := diy.ReadAllBlocks(filepath.Join(dir, decompName))
	if err != nil {
		return nil, err
	}
	if len(decomp) != 1 {
		return nil, fmt.Errorf("storage: %s holds %d sections, want 1", decompName, len(decomp))
	}
	c.Decomp = decomp[0]
	prev, err := diy.ReadAllBlocks(filepath.Join(dir, prevName))
	if err != nil {
		return nil, err
	}
	c.Prev = make([]map[int64]geom.Vec3, len(prev))
	for i, raw := range prev {
		if c.Prev[i], err = decodeSites(raw); err != nil {
			return nil, fmt.Errorf("storage: prev sites rank %d: %w", i, err)
		}
	}
	if c.Meshes, err = diy.ReadAllBlocks(filepath.Join(dir, meshesName)); err != nil {
		return nil, err
	}
	if len(c.Meshes) != c.Manifest.NumBlocks || len(c.Prev) != c.Manifest.NumBlocks {
		return nil, fmt.Errorf("storage: checkpoint holds %d meshes / %d prev sets for %d blocks",
			len(c.Meshes), len(c.Prev), c.Manifest.NumBlocks)
	}
	return c, nil
}

const sitesMagic uint64 = 0x7465737353495431 // "tessSIT1"

// encodeSites serializes one rank's warm-baseline site map as a
// particle-record section, sorted by ID so the bytes are independent of
// map iteration order.
func encodeSites(m map[int64]geom.Vec3) []byte {
	ps := make([]diy.Particle, 0, len(m))
	for _, id := range slices.Sorted(maps.Keys(m)) {
		ps = append(ps, diy.Particle{ID: id, Pos: m[id]})
	}
	return encodeRecords(sitesMagic, ps)
}

func decodeSites(data []byte) (map[int64]geom.Vec3, error) {
	ps, err := decodeRecords(sitesMagic, data)
	if err != nil {
		return nil, err
	}
	m := make(map[int64]geom.Vec3, len(ps))
	for _, p := range ps {
		m[p.ID] = p.Pos
	}
	return m, nil
}
