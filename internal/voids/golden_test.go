package voids_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/voids"
)

// goldenDigest hashes everything void finding returns: every component's
// label, member IDs, Euler characteristic and the bits of each Minkowski
// functional, and the same fields of sweep rows, zones and flooded voids.
type goldenDigest struct{ h hash.Hash }

func (d goldenDigest) int(v int64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(v) >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d goldenDigest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d goldenDigest) ids(ids []int64) {
	d.int(int64(len(ids)))
	for _, id := range ids {
		d.int(id)
	}
}

func (d goldenDigest) components(comps []voids.Component) {
	d.int(int64(len(comps)))
	for _, c := range comps {
		d.int(c.Label)
		d.ids(c.CellIDs)
		f := c.Functionals
		d.int(int64(f.EulerChi))
		for _, v := range []float64{f.Volume, f.Area, f.MeanCurvature, f.Thickness, f.Breadth, f.Length} {
			d.float(v)
		}
	}
}

func (d goldenDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// goldenCells tessellates ps and returns the cell records, read back from
// a tess file when viaFile is set and taken from the meshes otherwise.
func goldenCells(t *testing.T, cfg core.Config, ps []diy.Particle, blocks int, viaFile bool) []voids.CellRecord {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.tess")
	var opts []core.StepOption
	if viaFile {
		opts = append(opts, core.WithOutputPath(path))
	}
	out, err := core.Run(cfg, ps, blocks, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if viaFile {
		recs, err := voids.ReadTessFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	var recs []voids.CellRecord
	for bi, m := range out.Meshes {
		recs = append(recs, voids.CellsFromMesh(m, bi)...)
	}
	return recs
}

// jitteredLattice is an n^3 lattice in an n-wide box, each point moved by
// up to 0.45 of the spacing on each axis.
func jitteredLattice(n int, seed int64) []diy.Particle {
	rng := rand.New(rand.NewSource(seed))
	var ps []diy.Particle
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				ps = append(ps, diy.Particle{ID: int64(len(ps)), Pos: geom.V(
					float64(x)+0.5+(rng.Float64()-0.5)*0.9,
					float64(y)+0.5+(rng.Float64()-0.5)*0.9,
					float64(z)+0.5+(rng.Float64()-0.5)*0.9)})
			}
		}
	}
	return ps
}

func meanVolume(recs []voids.CellRecord) float64 {
	var sum float64
	for _, r := range recs {
		sum += r.Volume
	}
	return sum / float64(len(recs))
}

// TestFindVoidsGoldenDigests pins, bit for bit, what void finding returns:
// components of the postproc-clustered op's shape scaled to 16^3 (read
// back from its tess file), of jittered periodic lattices on one and four
// blocks and of a bounded lattice whose boundary cells keep their wall
// faces; a threshold sweep; and watershed zones flooded at three barriers.
// The two inputs read back from a tess file were re-pinned when tess files
// moved to the v2 layout, from the same blocks written in v2 by the
// commit before: their vertices sit on a 2^-31 grid of the block span,
// which moves the functionals in their last digits.
func TestFindVoidsGoldenDigests(t *testing.T) {
	periodic := func(L float64) core.Config {
		return core.Config{
			Domain:    geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)),
			Periodic:  true,
			GhostSize: 3,
		}
	}
	cp := cosmo.DefaultClusterParams()
	cp.Seed = 3001
	clustered := make([]diy.Particle, 0, 16*16*16)
	for i, p := range cosmo.ClusteredPositions(16*16*16, 16, cp) {
		clustered = append(clustered, diy.Particle{ID: int64(i), Pos: p})
	}
	clusteredCfg := periodic(16)
	clusteredCfg.Decomposition = core.DecomposeRCB
	clusteredCfg.MinVolume = 0.1
	bounded := periodic(8)
	bounded.Periodic = false
	bounded.KeepIncomplete = true

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, d goldenDigest)
		want string
	}{
		{"clustered16-rcb8", func(t *testing.T, d goldenDigest) {
			recs := goldenCells(t, clusteredCfg, clustered, 8, true)
			th := 2.0 * meanVolume(recs)
			d.float(th)
			d.components(voids.ConnectedComponents(voids.Threshold(recs, th)))
		}, "a0fce6253bfbd0bce52d9610c69561220307eb0f94439c96a4a2f5a0eb2b4668"},
		{"jitter8-b1", func(t *testing.T, d goldenDigest) {
			comps, th := voids.Label(goldenCells(t, periodic(8), jitteredLattice(8, 31), 1, false), 0)
			d.float(th)
			d.components(comps)
		}, "65d2f6b01acb05bc9b6927f020abcb8d59774f1e20c7ad1b152ab9477230efd1"},
		{"jitter8-b4", func(t *testing.T, d goldenDigest) {
			comps, th := voids.Label(goldenCells(t, periodic(8), jitteredLattice(8, 31), 4, true), 0)
			d.float(th)
			d.components(comps)
		}, "0ac180914ed2b3a4432715d5a6a7656a74afc77e94dd253cb8275e3aa318c677"},
		{"bounded8-b4", func(t *testing.T, d goldenDigest) {
			recs := goldenCells(t, bounded, jitteredLattice(8, 32), 4, false)
			walls := 0
			for _, r := range recs {
				if !r.Complete {
					walls++
				}
			}
			if walls == 0 {
				t.Fatal("bounded input has no cell on the domain walls")
			}
			for _, minVolume := range []float64{0, 1.1, 1.3} {
				comps, th := voids.Label(recs, minVolume)
				d.float(th)
				d.components(comps)
			}
		}, "271db7cb08644d84f8ee0bb68ca5ebe83c4f299977f441d6b3811cceed6c1524"},
		{"sweep-jitter8-b4", func(t *testing.T, d goldenDigest) {
			recs := goldenCells(t, periodic(8), jitteredLattice(8, 33), 4, false)
			for _, r := range voids.ThresholdSweep(recs, []float64{0, 0.5, 0.9, 1.0, 1.1, 1.3, 1.6}) {
				d.float(r.MinVolume)
				d.int(int64(r.Cells))
				d.int(int64(r.Components))
				d.float(r.LargestVolume)
			}
		}, "2464512d4f1038b216c70c070114d0c789ef9f7544718617fcae6f4a717c8f3e"},
		{"watershed-clustered16-rcb8", func(t *testing.T, d goldenDigest) {
			recs := goldenCells(t, clusteredCfg, clustered, 8, false)
			zones, err := voids.Watershed(recs)
			if err != nil {
				t.Fatal(err)
			}
			d.int(int64(len(zones)))
			for _, z := range zones {
				d.int(z.Core)
				d.ids(z.CellIDs)
				d.float(z.CoreDensity)
				d.float(z.Volume)
			}
			for _, barrier := range []float64{0, 0.5, 2} {
				vs := voids.FloodZones(recs, zones, barrier)
				d.int(int64(len(vs)))
				for _, v := range vs {
					d.ids(v.Zones)
					d.ids(v.CellIDs)
					d.float(v.Volume)
				}
			}
		}, "6996499c305acfbe169bfdef586d0eabef5578abdddfaab7447a078903edf76d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := goldenDigest{sha256.New()}
			tc.run(t, d)
			if got := d.sum(); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
