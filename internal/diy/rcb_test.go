package diy

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
)

func clusteredParticles(n int, L float64, seed int64) []Particle {
	p := cosmo.DefaultClusterParams()
	p.Seed = seed
	pos := cosmo.ClusteredPositions(n, L, p)
	ps := make([]Particle, len(pos))
	for i, q := range pos {
		ps[i] = Particle{ID: int64(i), Pos: q}
	}
	return ps
}

func TestRCBLeavesTileDomain(t *testing.T) {
	const L = 10.0
	domain := unitDomain(L)
	for _, periodic := range []bool{true, false} {
		for _, blocks := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
			ps := clusteredParticles(600, L, int64(blocks))
			d, err := DecomposeRCB(domain, blocks, periodic, ps, 1.5)
			if err != nil {
				t.Fatalf("blocks=%d periodic=%v: %v", blocks, periodic, err)
			}
			if d.NumBlocks() != blocks {
				t.Fatalf("blocks=%d: NumBlocks = %d", blocks, d.NumBlocks())
			}
			// Volumes sum to the domain volume.
			var vol float64
			for r := 0; r < blocks; r++ {
				b := d.Block(r)
				if b.Rank != r {
					t.Fatalf("block %d has Rank %d", r, b.Rank)
				}
				if b.Bounds.Empty() {
					t.Fatalf("block %d empty: %+v", r, b.Bounds)
				}
				vol += b.Bounds.Volume()
			}
			if math.Abs(vol-L*L*L) > 1e-9*L*L*L {
				t.Fatalf("blocks=%d: leaves cover volume %v, want %v", blocks, vol, L*L*L)
			}
			// Half-open ownership: every sampled point (and every input
			// particle) belongs to exactly one leaf under Min <= p < Max,
			// and Locate returns that leaf.
			rng := rand.New(rand.NewSource(int64(40 + blocks)))
			probes := make([]geom.Vec3, 0, 700)
			for i := 0; i < 400; i++ {
				probes = append(probes, geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L))
			}
			for _, p := range ps[:300] {
				probes = append(probes, p.Pos)
			}
			for _, p := range probes {
				owner := -1
				for r := 0; r < blocks; r++ {
					b := d.Block(r).Bounds
					if p.X >= b.Min.X && p.X < b.Max.X &&
						p.Y >= b.Min.Y && p.Y < b.Max.Y &&
						p.Z >= b.Min.Z && p.Z < b.Max.Z {
						if owner >= 0 {
							t.Fatalf("point %v owned by blocks %d and %d", p, owner, r)
						}
						owner = r
					}
				}
				if owner < 0 {
					t.Fatalf("point %v owned by no block", p)
				}
				if got := d.Locate(p); got != owner {
					t.Fatalf("Locate(%v) = %d, want %d", p, got, owner)
				}
			}
		}
	}
}

func TestRCBDomainMaxBelongsToLastLeaf(t *testing.T) {
	const L = 8.0
	ps := clusteredParticles(200, L, 3)
	d, err := DecomposeRCB(unitDomain(L), 4, true, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Locate(geom.V(L, L, L))
	if !d.Block(r).Bounds.Contains(geom.V(L, L, L)) {
		t.Fatalf("domain max located in block %d with bounds %+v", r, d.Block(r).Bounds)
	}
	if r0 := d.Locate(geom.V(0, 0, 0)); !d.Block(r0).Bounds.Contains(geom.V(0, 0, 0)) {
		t.Fatalf("origin located in block %d", r0)
	}
}

func TestRCBBalancesParticleCounts(t *testing.T) {
	const L = 16.0
	const n = 4096
	for _, periodic := range []bool{true, false} {
		for _, blocks := range []int{2, 4, 8} {
			ps := clusteredParticles(n, L, 11)
			d, err := DecomposeRCB(unitDomain(L), blocks, periodic, ps, 2)
			if err != nil {
				t.Fatal(err)
			}
			parts := PartitionParticles(d, ps)
			total, max := 0, 0
			for _, part := range parts {
				total += len(part)
				if len(part) > max {
					max = len(part)
				}
			}
			if total != n {
				t.Fatalf("blocks=%d: partition lost particles (%d of %d)", blocks, total, n)
			}
			ideal := float64(n) / float64(blocks)
			if float64(max) > ideal*1.05+1 {
				t.Fatalf("blocks=%d periodic=%v: max block holds %d particles, ideal %.0f",
					blocks, periodic, max, ideal)
			}
			// Contrast: the regular grid on the same clustered input is
			// badly imbalanced (this is the imbalance RCB removes).
			dg, err := Decompose(unitDomain(L), blocks, periodic)
			if err != nil {
				t.Fatal(err)
			}
			gmax := 0
			for _, part := range PartitionParticles(dg, ps) {
				if len(part) > gmax {
					gmax = len(part)
				}
			}
			if gmax <= max {
				t.Logf("blocks=%d: grid max %d not worse than RCB max %d (unusually uniform input?)",
					blocks, gmax, max)
			}
		}
	}
}

func TestRCBExchangeGhostCoverage(t *testing.T) {
	// The ghost contract of the grid test, evaluated over RCB leaves.
	const L = 10.0
	ps := clusteredParticles(800, L, 21)
	for _, ghost := range []float64{1.5, 4} {
		d, err := DecomposeRCB(unitDomain(L), 8, true, ps, ghost)
		if err != nil {
			t.Fatal(err)
		}
		checkGhostCoverage(t, d, ps, ghost)
	}
}

func TestRCBGatherGhostsMatchesExchange(t *testing.T) {
	const L = 10.0
	for _, periodic := range []bool{true, false} {
		for _, blocks := range []int{1, 2, 4, 8} {
			ps := clusteredParticles(400, L, int64(200+blocks))
			d, err := DecomposeRCB(unitDomain(L), blocks, periodic, ps, 1.2)
			if err != nil {
				t.Fatal(err)
			}
			checkGatherMatchesExchange(t, d, ps, 1.2)
		}
	}
}

func TestRCBGhostCapacity(t *testing.T) {
	const L = 10.0
	ps := clusteredParticles(300, L, 5)
	if _, err := DecomposeRCB(unitDomain(L), 8, true, ps, L/2); err != nil {
		t.Errorf("periodic RCB ghost at half the side rejected: %v", err)
	}
	// A periodic RCB ghost beyond half the smallest side is rejected.
	if _, err := DecomposeRCB(unitDomain(L), 8, true, ps, L/2+1); err == nil {
		t.Error("oversized periodic RCB ghost accepted")
	}
	// Non-periodic domains have no wrap constraint.
	if _, err := DecomposeRCB(unitDomain(L), 8, false, ps, L/2+1); err != nil {
		t.Errorf("non-periodic RCB ghost rejected: %v", err)
	}
}

// TestReplayRCB: a decomposition rebuilt from its own cuts is the one
// DecomposeRCB cut from the particles — same blocks, same links, same
// owner for every point, bit for bit — on the clustered mock.
func TestReplayRCB(t *testing.T) {
	const L, ghost = 10.0, 1.5
	for _, periodic := range []bool{true, false} {
		for _, blocks := range []int{1, 2, 3, 5, 8, 16} {
			ps := clusteredParticles(800, L, int64(60+blocks))
			d, err := DecomposeRCB(unitDomain(L), blocks, periodic, ps, ghost)
			if err != nil {
				t.Fatal(err)
			}
			cuts := d.Cuts()
			if len(cuts) != blocks-1 {
				t.Fatalf("blocks=%d: %d cuts, want %d", blocks, len(cuts), blocks-1)
			}
			got, err := ReplayRCB(unitDomain(L), blocks, periodic, cuts, ghost)
			if err != nil {
				t.Fatalf("periodic=%v blocks=%d: %v", periodic, blocks, err)
			}
			for r := 0; r < blocks; r++ {
				if got.Block(r) != d.Block(r) {
					t.Fatalf("periodic=%v blocks=%d: block %d %+v, want %+v", periodic, blocks, r, got.Block(r), d.Block(r))
				}
				if !reflect.DeepEqual(links(got, r, ghost), links(d, r, ghost)) {
					t.Fatalf("periodic=%v blocks=%d: rank %d links differ", periodic, blocks, r)
				}
			}
			rng := rand.New(rand.NewSource(int64(blocks)))
			for i := 0; i < 2000; i++ {
				p := geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L)
				if i < len(ps) {
					p = ps[i].Pos
				}
				if a, b := d.Locate(p), got.Locate(p); a != b {
					t.Fatalf("periodic=%v blocks=%d: Locate(%v) = %d replayed, %d cut", periodic, blocks, p, b, a)
				}
			}
		}
	}
}

// TestReplayRCBRejectsMalformedCuts: a cut list that is not n-1 cuts each
// strictly inside the box it splits is an error, never a decomposition
// with an empty or overlapping block. The box is 40 long in x, so the
// root and both children cut x (near 20, 10 and 30).
func TestReplayRCBRejectsMalformedCuts(t *testing.T) {
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(40, 10, 10))
	rng := rand.New(rand.NewSource(9))
	ps := make([]Particle, 400)
	for i := range ps {
		ps[i] = Particle{ID: int64(i), Pos: geom.V(rng.Float64()*40, rng.Float64()*10, rng.Float64()*10)}
	}
	d, err := DecomposeRCB(domain, 4, true, ps, 2)
	if err != nil {
		t.Fatal(err)
	}
	valid := d.Cuts()
	for _, tc := range []struct {
		name   string
		edit   func(c []float64) []float64
		reason string
	}{
		{"none", func([]float64) []float64 { return nil }, "0 RCB cuts for 4 blocks"},
		{"too few", func(c []float64) []float64 { return c[:2] }, "2 RCB cuts"},
		{"too many", func(c []float64) []float64 { return append(c, c[0]) }, "4 RCB cuts"},
		{"on the domain face", func(c []float64) []float64 { c[0] = 0; return c }, "cut 0 at 0 is not inside"},
		{"on its box face", func(c []float64) []float64 { c[1] = c[0]; return c }, "cut 1"},
		{"outside the domain", func(c []float64) []float64 { c[0] = 50; return c }, "cut 0 at 50"},
		{"children swapped", func(c []float64) []float64 { c[1], c[2] = c[2], c[1]; return c }, "cut 1"},
		{"NaN", func(c []float64) []float64 { c[2] = math.NaN(); return c }, "cut 2 at NaN"},
	} {
		cuts := tc.edit(append([]float64(nil), valid...))
		if _, err := ReplayRCB(domain, 4, true, cuts, 2); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s %v: ReplayRCB = %v, want an error mentioning %q", tc.name, cuts, err, tc.reason)
		}
	}
	if _, err := ReplayRCB(domain, 0, true, nil, 2); err == nil {
		t.Error("0 blocks accepted")
	}
	if _, err := ReplayRCB(domain, 4, true, valid, 6); err == nil {
		t.Error("periodic ghost beyond half the smallest side accepted")
	}
	if grid, err := Decompose(domain, 4, true); err != nil || grid.Cuts() != nil {
		t.Errorf("a regular grid has cuts (err %v)", err)
	}
}

func TestRCBDegenerateInputs(t *testing.T) {
	const L = 6.0
	// No particles at all: geometric splits, still a valid tiling.
	d, err := DecomposeRCB(unitDomain(L), 8, true, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var vol float64
	for r := 0; r < 8; r++ {
		vol += d.Block(r).Bounds.Volume()
	}
	if math.Abs(vol-L*L*L) > 1e-9 {
		t.Fatalf("empty-input leaves cover %v", vol)
	}
	// All particles coincident: geometric fallback, no empty boxes.
	same := make([]Particle, 50)
	for i := range same {
		same[i] = Particle{ID: int64(i), Pos: geom.V(3, 3, 3)}
	}
	d, err = DecomposeRCB(unitDomain(L), 4, true, same, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if d.Block(r).Bounds.Empty() || d.Block(r).Bounds.Volume() == 0 {
			t.Fatalf("coincident input produced degenerate block %d: %+v", r, d.Block(r).Bounds)
		}
	}
	if _, err := DecomposeRCB(unitDomain(L), 0, true, nil, 1); err == nil {
		t.Error("0 blocks accepted")
	}
}
