package diy

// The ablation fork of the ghost exchange — broadcast every boundary
// particle to every neighbour instead of targeting — with the test that
// holds it to the production exchange and the benchmark pair that prices
// the targeting:
//
//	go test -run '^$' -bench Ablation -benchtime 1x ./internal/diy

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/nbody"
)

// BroadcastExchange is the non-targeted baseline used by the ablation
// benchmark: every particle within ghost distance of *any* block face is
// sent to *all* neighbors, instead of only the ones whose region needs it.
// Results are identical after the receiver filters, but message volume is
// larger.
func BroadcastExchange(w *comm.World, d *Decomposition, rank int, local []Particle, ghost float64) []Particle {
	neighbors := links(d, rank, ghost)
	myBounds := d.Block(rank).Bounds

	// Candidate set: particles near this block's own boundary.
	var boundary []Particle
	for _, p := range local {
		if myBounds.InteriorDist(p.Pos) <= ghost {
			boundary = append(boundary, p)
		}
	}

	perRank := make(map[int][]Particle)
	for _, l := range neighbors {
		shifted := make([]Particle, len(boundary))
		for i, p := range boundary {
			shifted[i] = Particle{ID: p.ID, Pos: p.Pos.Add(l.shift)}
		}
		perRank[l.rank] = append(perRank[l.rank], shifted...)
	}
	ranks := slices.Sorted(maps.Keys(perRank))
	for _, dst := range ranks {
		w.Send(rank, dst, tagExchange, perRank[dst])
	}
	var ghosts []Particle
	mine := myBounds.Expand(ghost)
	for _, src := range ranks {
		batch := w.Recv(rank, src, tagExchange).([]Particle)
		for _, p := range batch {
			if mine.Contains(p.Pos) {
				ghosts = append(ghosts, p)
			}
		}
	}
	return ghosts
}

func TestBroadcastExchangeMatchesTargeted(t *testing.T) {
	// The broadcast baseline must deliver the same ghost sets as the
	// targeted exchange (it is only allowed to cost more traffic).
	const L = 12.0
	const ghost = 1.0
	d, err := Decompose(unitDomain(L), 27, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	ps := randomParticles(rng, 600, L)
	a := runExchange(t, d, ps, ghost, exchangeGhost)
	b := runExchange(t, d, ps, ghost, BroadcastExchange)
	for r := range a {
		ka := ghostKeys(a[r])
		kb := ghostKeys(b[r])
		if len(ka) != len(kb) {
			t.Fatalf("rank %d: targeted %d ghosts, broadcast %d", r, len(ka), len(kb))
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("rank %d: ghost sets differ at %d: %v vs %v", r, i, ka[i], kb[i])
			}
		}
	}
}

// BenchmarkAblationTargetedExchange compares the targeted neighbor exchange
// against the broadcast-to-all-neighbors baseline, reporting ghost volume.
func BenchmarkAblationTargetedExchange(b *testing.B)  { benchExchange(b, exchangeGhost) }
func BenchmarkAblationBroadcastExchange(b *testing.B) { benchExchange(b, BroadcastExchange) }

// benchExchange runs fn on the 8 blocks of an 8^3-particle N-body snapshot
// (40 steps) with a ghost zone a quarter of the box wide.
func benchExchange(b *testing.B, fn func(*comm.World, *Decomposition, int, []Particle, float64) []Particle) {
	sim, err := nbody.New(nbody.DefaultConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	sim.Run(40, nil)
	ps := make([]Particle, len(sim.Pos))
	for i, p := range sim.Pos {
		ps[i] = Particle{ID: int64(i), Pos: p}
	}
	d, err := Decompose(unitDomain(8), 8, true)
	if err != nil {
		b.Fatal(err)
	}
	parts := PartitionParticles(d, ps)
	var ghosts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := comm.NewWorld(8)
		var mu sync.Mutex
		var total int64
		w.Run(func(rank int) {
			g := fn(w, d, rank, parts[rank], 2.0)
			mu.Lock()
			total += int64(len(g))
			mu.Unlock()
		})
		ghosts = total
	}
	b.ReportMetric(float64(ghosts), "ghosts")
}
