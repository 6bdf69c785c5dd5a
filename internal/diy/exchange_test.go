package diy

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
)

func randomParticles(rng *rand.Rand, n int, L float64) []Particle {
	ps := make([]Particle, n)
	for i := range ps {
		ps[i] = Particle{
			ID:  int64(i),
			Pos: geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L),
		}
	}
	return ps
}

func TestPartitionParticles(t *testing.T) {
	d, err := Decompose(unitDomain(10), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	ps := randomParticles(rng, 1000, 10)
	parts := PartitionParticles(d, ps)
	total := 0
	for r, part := range parts {
		total += len(part)
		for _, p := range part {
			if !d.Block(r).Bounds.Contains(p.Pos) {
				t.Fatalf("particle %v assigned to wrong block %d", p.Pos, r)
			}
		}
	}
	if total != 1000 {
		t.Errorf("partition lost particles: %d", total)
	}
}

// exchangeGhost is one exchange through a fresh Exchanger: what every rank
// of a session does on its first step.
func exchangeGhost(w *comm.World, d *Decomposition, rank int, local []Particle, ghost float64) []Particle {
	return NewExchanger(d, rank, ghost).Exchange(w, d, rank, local)
}

// runExchange partitions particles, runs the collective exchange on all
// ranks, and returns per-rank ghosts.
func runExchange(t *testing.T, d *Decomposition, ps []Particle, ghost float64,
	fn func(*comm.World, *Decomposition, int, []Particle, float64) []Particle) [][]Particle {
	t.Helper()
	parts := PartitionParticles(d, ps)
	w := comm.NewWorld(d.NumBlocks())
	ghosts := make([][]Particle, d.NumBlocks())
	var mu sync.Mutex
	w.Run(func(rank int) {
		g := fn(w, d, rank, parts[rank], ghost)
		mu.Lock()
		ghosts[rank] = g
		mu.Unlock()
	})
	return ghosts
}

func TestExchangeGhostCoverage(t *testing.T) {
	const L = 10.0
	rng := rand.New(rand.NewSource(27))
	ps := randomParticles(rng, 800, L)
	// 8 blocks are 5 wide, 27 are 10/3: the last two ghosts reach past the
	// 26-neighbourhood.
	for _, tc := range []struct {
		blocks int
		ghost  float64
	}{{8, 1.5}, {27, 1.5}, {27, 4}, {8, 5}} {
		d, err := Decompose(unitDomain(L), tc.blocks, true)
		if err != nil {
			t.Fatal(err)
		}
		checkGhostCoverage(t, d, ps, tc.ghost)
	}
}

// checkGhostCoverage is the decomposition-independent ghost contract, held
// against brute force: every rank receives exactly the particles (or
// periodic images) inside its ghost-expanded bounds, minus its own
// originals, each once.
func checkGhostCoverage(t *testing.T, d *Decomposition, ps []Particle, ghost float64) {
	t.Helper()
	L := d.Domain.Size().X
	parts := PartitionParticles(d, ps)
	ghosts := runExchange(t, d, ps, ghost, exchangeGhost)
	type key struct {
		id      int64
		x, y, z float64
	}
	for r := 0; r < d.NumBlocks(); r++ {
		expanded := d.Block(r).Bounds.Expand(ghost)
		local := map[int64]bool{}
		for _, p := range parts[r] {
			local[p.ID] = true
		}
		// Expected ghost images: for every particle and every image shift
		// in {-L,0,L}^3, the image is expected if it falls in the expanded
		// bounds and is not the particle's own unshifted copy in this block.
		expect := map[key]bool{}
		for _, p := range ps {
			for _, sx := range []float64{-L, 0, L} {
				for _, sy := range []float64{-L, 0, L} {
					for _, sz := range []float64{-L, 0, L} {
						img := p.Pos.Add(geom.V(sx, sy, sz))
						if !expanded.Contains(img) {
							continue
						}
						if sx == 0 && sy == 0 && sz == 0 && local[p.ID] {
							continue // original, not a ghost
						}
						expect[key{p.ID, img.X, img.Y, img.Z}] = true
					}
				}
			}
		}
		got := map[key]bool{}
		for _, g := range ghosts[r] {
			k := key{g.ID, g.Pos.X, g.Pos.Y, g.Pos.Z}
			if got[k] {
				t.Fatalf("%d blocks, ghost %g: rank %d received duplicate ghost %+v", d.NumBlocks(), ghost, r, k)
			}
			got[k] = true
		}
		for k := range expect {
			if !got[k] {
				t.Fatalf("%d blocks, ghost %g: rank %d missing expected ghost %+v", d.NumBlocks(), ghost, r, k)
			}
		}
		for k := range got {
			if !expect[k] {
				t.Fatalf("%d blocks, ghost %g: rank %d received unexpected ghost %+v", d.NumBlocks(), ghost, r, k)
			}
		}
	}
}

func TestExchangeGhostSmallGhostSendsLess(t *testing.T) {
	const L = 10.0
	d, err := Decompose(unitDomain(L), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	ps := randomParticles(rng, 500, L)
	small := runExchange(t, d, ps, 0.5, exchangeGhost)
	large := runExchange(t, d, ps, 2.0, exchangeGhost)
	for r := range small {
		if len(small[r]) > len(large[r]) {
			t.Fatalf("rank %d: smaller ghost received more particles (%d > %d)",
				r, len(small[r]), len(large[r]))
		}
	}
}

func TestExchangeGhostZero(t *testing.T) {
	// Ghost size zero exchanges (essentially) nothing: only particles
	// exactly on block faces would qualify, and random particles are not.
	const L = 10.0
	d, err := Decompose(unitDomain(L), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	ps := randomParticles(rng, 500, L)
	ghosts := runExchange(t, d, ps, 0, exchangeGhost)
	for r, g := range ghosts {
		if len(g) != 0 {
			t.Errorf("rank %d received %d ghosts with zero ghost size", r, len(g))
		}
	}
}

func ghostKeys(ps []Particle) []Particle {
	out := append([]Particle(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		if out[i].Pos.X != out[j].Pos.X {
			return out[i].Pos.X < out[j].Pos.X
		}
		if out[i].Pos.Y != out[j].Pos.Y {
			return out[i].Pos.Y < out[j].Pos.Y
		}
		return out[i].Pos.Z < out[j].Pos.Z
	})
	return out
}

func TestExchangeSingleBlockPeriodicImages(t *testing.T) {
	// With one block, the exchange must deliver the periodic self-images of
	// boundary particles — this is what makes the P=1 tessellation periodic.
	const L = 10.0
	d, err := Decompose(unitDomain(L), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ps := []Particle{
		{ID: 0, Pos: geom.V(0.5, 5, 5)},   // near -x face
		{ID: 1, Pos: geom.V(5, 5, 5)},     // center: no images
		{ID: 2, Pos: geom.V(9.8, 9.9, 5)}, // near +x +y edge
	}
	ghosts := runExchange(t, d, ps, 1.0, exchangeGhost)[0]
	hasImage := func(id int64, at geom.Vec3) bool {
		for _, g := range ghosts {
			if g.ID == id && g.Pos.Dist(at) < 1e-9 {
				return true
			}
		}
		return false
	}
	if !hasImage(0, geom.V(10.5, 5, 5)) {
		t.Errorf("missing +x image of particle 0: %v", ghosts)
	}
	if !hasImage(2, geom.V(-0.2, -0.1, 5)) {
		t.Errorf("missing corner image of particle 2: %v", ghosts)
	}
	for _, g := range ghosts {
		if g.Pos.Dist(geom.V(5, 5, 5)) < 1 {
			t.Errorf("center particle should have no images, found %v", g.Pos)
		}
	}
}

// GatherGhosts computes the same ghost set an Exchanger would deliver to
// rank, directly from the globally partitioned particle arrays and without
// a communicator: the independent oracle the message exchange is checked
// against here and in rcb_test.go.
//
// parts must be the per-rank particle partition (as from
// PartitionParticles).
func GatherGhosts(d *Decomposition, rank int, parts [][]Particle, ghost float64) []Particle {
	target := d.Block(rank).Bounds.Expand(ghost)
	var ghosts []Particle
	for _, l := range links(d, rank, ghost) {
		// The reverse of l (from l.rank back to rank) carries the negated
		// shift.
		shift := l.shift.Neg()
		for _, p := range parts[l.rank] {
			q := p.Pos.Add(shift)
			if target.Contains(q) {
				ghosts = append(ghosts, Particle{ID: p.ID, Pos: q})
			}
		}
	}
	return ghosts
}

func TestGatherGhostsMatchesExchange(t *testing.T) {
	const L = 10.0
	for _, tc := range []struct {
		blocks int
		ghost  float64
	}{{1, 1.2}, {2, 1.2}, {4, 1.2}, {8, 1.2}, {27, 1.2}, {27, 4}, {64, 5}} {
		d, err := Decompose(unitDomain(L), tc.blocks, true)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + tc.blocks)))
		ps := randomParticles(rng, 400, L)
		checkGatherMatchesExchange(t, d, ps, tc.ghost)
	}
}

// checkGatherMatchesExchange holds the message exchange to GatherGhosts on
// every rank of d.
func checkGatherMatchesExchange(t *testing.T, d *Decomposition, ps []Particle, ghost float64) {
	t.Helper()
	parts := PartitionParticles(d, ps)
	exchanged := runExchange(t, d, ps, ghost, exchangeGhost)
	for r := 0; r < d.NumBlocks(); r++ {
		ka := ghostKeys(exchanged[r])
		kb := ghostKeys(GatherGhosts(d, r, parts, ghost))
		if len(ka) != len(kb) {
			t.Fatalf("periodic=%v blocks=%d ghost %g rank %d: exchange %d ghosts, gather %d",
				d.Periodic, d.NumBlocks(), ghost, r, len(ka), len(kb))
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("periodic=%v blocks=%d ghost %g rank %d: ghost %d differs: %+v vs %+v",
					d.Periodic, d.NumBlocks(), ghost, r, i, ka[i], kb[i])
			}
		}
	}
}

// A cold Exchange sizes every buffer of the ghost path once: each payload
// a peer receives is allocated at its exact length, and each rank's ghost
// buffer at the sum of its batches; a warm call with the same input reuses
// that buffer. Rank 0 watches from the outside: it sends its peers
// nothing and checks what arrives against what its own Exchange returns.
func TestExchangeSizesBuffersExactly(t *testing.T) {
	const L, ghost = 12.0, 1.5
	for _, rcb := range []bool{false, true} {
		rng := rand.New(rand.NewSource(38))
		ps := randomParticles(rng, 3000, L)
		var d *Decomposition
		var err error
		if rcb {
			d, err = DecomposeRCB(unitDomain(L), 8, true, ps, ghost)
		} else {
			d, err = Decompose(unitDomain(L), 27, true)
		}
		if err != nil {
			t.Fatal(err)
		}
		parts := PartitionParticles(d, ps)
		n := d.NumBlocks()

		// Every rank exchanges twice through one retained Exchanger.
		exs := make([]*Exchanger, n)
		first := make([][]Particle, n)
		w := comm.NewWorld(n)
		w.Run(func(rank int) {
			exs[rank] = NewExchanger(d, rank, ghost)
			g := exs[rank].Exchange(w, d, rank, parts[rank])
			if cap(g) != len(g) {
				t.Errorf("rcb %v rank %d: cold ghost buffer cap %d, len %d", rcb, rank, cap(g), len(g))
			}
			first[rank] = append([]Particle(nil), g...)
			g2 := exs[rank].Exchange(w, d, rank, parts[rank])
			if len(g2) != len(first[rank]) || len(g) > 0 && &g2[0] != &g[0] {
				t.Errorf("rcb %v rank %d: a warm call with the same input reallocated the ghost buffer", rcb, rank)
			}
		})

		// Rank 0 receives its peers' payloads by hand.
		var got []Particle
		w = comm.NewWorld(n)
		w.Run(func(rank int) {
			if rank != 0 {
				NewExchanger(d, rank, ghost).Exchange(w, d, rank, parts[rank])
				return
			}
			ex := NewExchanger(d, 0, ghost)
			for _, dst := range ex.dsts {
				w.Send(0, dst, tagExchange, []Particle(nil))
			}
			for _, src := range ex.dsts {
				batch := w.Recv(0, src, tagExchange).([]Particle)
				if cap(batch) != len(batch) {
					t.Errorf("rcb %v: payload from rank %d has cap %d, len %d", rcb, src, cap(batch), len(batch))
				}
				got = append(got, batch...)
			}
		})
		if len(got) == 0 || !slices.Equal(got, first[0]) {
			t.Errorf("rcb %v: rank 0 received %d particles by hand, %d through Exchange", rcb, len(got), len(first[0]))
		}
	}
}
