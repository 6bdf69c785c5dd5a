package voronoi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
	"repro/internal/nbody"
)

type goldenCloud struct {
	name string
	pts  []geom.Vec3
	// emptied is how many cells must end in the emptied-cell error; the
	// error text (which names the site and the point that emptied it) is
	// part of the digest.
	emptied int
	want    string
}

// goldenClouds are the five seeded inputs whose every cell is pinned bit
// for bit. The digests were produced by this test at the parent of the
// one-compaction sweep (commit 56ce8fd, per-cut compactScratch and
// ping-pong face banks), so they hold the rewritten kernel to the bytes
// the old one produced: evolved N-body particles, a halo mock, a jittered
// lattice, an exact lattice (on-plane vertices, dropped faces, cospherical
// ties) and a uniform cloud with exact and near duplicates.
func goldenClouds(t *testing.T) []goldenCloud {
	sim, err := nbody.New(nbody.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(20, nil)

	cp := cosmo.DefaultClusterParams()
	cp.Seed = 17

	rng := rand.New(rand.NewSource(1701))
	jittered := perturbedLattice(rng, 12, 12, 0.6)

	// Exact duplicates are skipped like the site itself; a pair of
	// near-duplicates on opposite sides of a point empties its cell.
	dup := uniformPts(rng, 2000, 12)
	dup = append(dup, dup[:30]...)
	for _, p := range dup[30:40] {
		dup = append(dup, p.Add(geom.V(1e-10, 0, 0)), p.Sub(geom.V(1e-10, 0, 0)))
	}

	return []goldenCloud{
		{name: "nbody-16", pts: sim.Pos,
			want: "ee761958a03d369a2f8b647bc3e3e35f8ef0e7a6882decd9a775fcf88309f4ef"},
		{name: "clustered-16", pts: cosmo.ClusteredPositions(16*16*16, 16, cp),
			want: "80620113c76a03c036544bb2cb99b1f3e9e93903f7be643952c3b14e92e9400b"},
		{name: "jittered-12", pts: jittered,
			want: "9a3e659c67fc967fd2a59e2ae15307eb0ec89707bf84f90555dada46c4dad853"},
		{name: "exact-10", pts: latticePts(10, 10),
			want: "a0cf10d2a4e95ab880bd9df9f84cb9a2cb36cecf98c474212380bf88ba6f9c75"},
		{name: "duplicates", pts: dup, emptied: 10,
			want: "069937899b794622f60320cbf11aaf656713f21f9cfc56305be30d122bc1759d"},
	}
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// hashCell folds everything a cell is — site id, Complete, every vertex
// coordinate's bits, every face's neighbour and loop — and the error text,
// if any, into h.
func hashCell(h hash.Hash, c *Cell, err error) {
	hashU64(h, uint64(c.SiteID))
	complete := uint64(0)
	if c.Complete {
		complete = 1
	}
	hashU64(h, complete)
	hashU64(h, uint64(len(c.Verts)))
	for _, v := range c.Verts {
		hashU64(h, math.Float64bits(v.X))
		hashU64(h, math.Float64bits(v.Y))
		hashU64(h, math.Float64bits(v.Z))
	}
	hashU64(h, uint64(len(c.Faces)))
	for _, f := range c.Faces {
		hashU64(h, uint64(f.Neighbor))
		hashU64(h, uint64(len(f.Loop)))
		for _, vi := range f.Loop {
			hashU64(h, uint64(vi))
		}
	}
	if err != nil {
		h.Write([]byte(err.Error()))
	}
}

// TestKernelGoldenDigests pins every cell of five seeded inputs to the
// bytes the per-cut-compaction kernel produced (see goldenClouds).
func TestKernelGoldenDigests(t *testing.T) {
	for _, cl := range goldenClouds(t) {
		t.Run(cl.name, func(t *testing.T) {
			ids := seqIDs(len(cl.pts))
			ix := NewIndex(cl.pts, ids, 0)
			initBox := geom.BoundingBox(cl.pts).Expand(1)
			s, pool := NewScratch(), new(CellPool)
			h := sha256.New()
			emptied := 0
			for i, site := range cl.pts {
				c, err := ComputeCellPooled(ix, site, ids[i], initBox, s, pool)
				if err != nil {
					if !strings.Contains(err.Error(), "emptied by") {
						t.Fatalf("site %d: %v", i, err)
					}
					emptied++
				}
				hashCell(h, c, err)
			}
			if emptied != cl.emptied {
				t.Errorf("%d emptied cells, want %d", emptied, cl.emptied)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != cl.want {
				t.Errorf("digest %s, want %s", got, cl.want)
			}
		})
	}
}
