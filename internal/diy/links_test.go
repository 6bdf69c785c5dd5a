package diy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// neighbourhood is a regular grid's 26-connected block graph, the
// neighbourhood of the paper's DIY exchange (Sec. III-C1) and the oracle
// links must reproduce below the smallest block side: every grid offset in
// {-1,0,1}³ but the identity, wrapped (with its periodic shift) on a
// periodic domain and dropped past a bounded one's edge, in ascending
// z-major offset order.
func neighbourhood(d *Decomposition, rank int) []link {
	dims := factor3(d.NumBlocks(), d.Domain.Size())
	c := [3]int{rank % dims[0], rank / dims[0] % dims[1], rank / (dims[0] * dims[1])}
	L := d.Domain.Size()
	var out []link
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := [3]int{c[0] + dx, c[1] + dy, c[2] + dz}
				var wrap [3]float64
				inside := true
				for a := range n {
					switch {
					case n[a] < 0:
						n[a], wrap[a] = n[a]+dims[a], 1
					case n[a] >= dims[a]:
						n[a], wrap[a] = n[a]-dims[a], -1
					}
					inside = inside && (wrap[a] == 0 || d.Periodic)
				}
				if inside {
					out = append(out, link{
						rank:  (n[2]*dims[1]+n[1])*dims[0] + n[0],
						shift: geom.V(wrap[0]*L.X, wrap[1]*L.Y, wrap[2]*L.Z),
					})
				}
			}
		}
	}
	return out
}

// smallestSide is the shortest side of any of d's blocks.
func smallestSide(d *Decomposition) float64 {
	m := math.Inf(1)
	for _, b := range d.blocks {
		s := b.Bounds.Size()
		m = math.Min(m, math.Min(s.X, math.Min(s.Y, s.Z)))
	}
	return m
}

// peerLinks is ls restricted to the links into rank, in order.
func peerLinks(ls []link, rank int) []link {
	var out []link
	for _, l := range ls {
		if l.rank == rank {
			out = append(out, l)
		}
	}
	return out
}

// Box adjacency is the 26-neighbourhood wherever a grid's ghost is below its
// smallest block side: the same links as a set, and each destination's in
// the neighbourhood's order (the order its ghosts concatenate in). At a
// ghost of exactly the side, blocks two apart touch the grown box under the
// same closed test the exchange applies, so the links are a superset.
func TestGridLinksAreTheNeighbourhood(t *testing.T) {
	domains := []geom.Box{
		unitDomain(8),
		unitDomain(32),
		geom.NewBox(geom.V(-1, 2, 0), geom.V(9, 5, 30)),
	}
	same, wider := 0, 0
	for _, domain := range domains {
		for n := 1; n <= 64; n++ {
			for _, periodic := range []bool{true, false} {
				d, err := Decompose(domain, n, periodic)
				if err != nil {
					t.Fatal(err)
				}
				side := smallestSide(d)
				for _, frac := range []float64{0, 0.1, 0.5, 0.99, 1} {
					ghost := frac * side
					for r := 0; r < n; r++ {
						got, want := links(d, r, ghost), neighbourhood(d, r)
						at := func() string {
							return fmt.Sprintf("domain %v n=%d periodic=%v ghost=%g rank %d", domain, n, periodic, ghost, r)
						}
						for _, l := range want {
							if !slices.Contains(got, l) {
								t.Fatalf("%s: neighbourhood link %+v missing", at(), l)
							}
						}
						if frac == 1 && len(got) > len(want) {
							wider++
							continue
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d links, the neighbourhood has %d", at(), len(got), len(want))
						}
						for _, l := range want {
							if g, w := peerLinks(got, l.rank), peerLinks(want, l.rank); !slices.Equal(g, w) {
								t.Fatalf("%s: links to rank %d are %+v, the neighbourhood's %+v", at(), l.rank, g, w)
							}
						}
						same++
					}
				}
			}
		}
	}
	t.Logf("%d rank configurations identical to the neighbourhood, %d wider at ghost == side", same, wider)
}

// Links are symmetric for both decompositions, at ghosts below and past the
// grid's block side: a -> b under s exactly when b -> a under -s, each once,
// grouped by peer in ascending rank.
func TestLinkSymmetry(t *testing.T) {
	const L = 10.0
	for _, periodic := range []bool{true, false} {
		for _, blocks := range []int{2, 5, 8, 27} {
			grid, err := Decompose(unitDomain(L), blocks, periodic)
			if err != nil {
				t.Fatal(err)
			}
			rcb, err := DecomposeRCB(unitDomain(L), blocks, periodic, clusteredParticles(500, L, int64(blocks)*3), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []*Decomposition{grid, rcb} {
				for _, ghost := range []float64{0, 1.5, 4} {
					type arc struct {
						from, to int
						shift    geom.Vec3
					}
					seen := map[arc]int{}
					for r := 0; r < blocks; r++ {
						prev := -1
						for _, l := range links(d, r, ghost) {
							if l.rank < prev {
								t.Fatalf("rcb=%v ghost %g: rank %d links not grouped by ascending peer", d.Cuts() != nil, ghost, r)
							}
							prev = l.rank
							seen[arc{r, l.rank, l.shift}]++
						}
					}
					for a, c := range seen {
						mirror := arc{a.to, a.from, a.shift.Neg()}
						if c != 1 || seen[mirror] != 1 {
							t.Fatalf("rcb=%v periodic=%v blocks=%d ghost %g: link %+v seen %d times, its mirror %d",
								d.Cuts() != nil, periodic, blocks, ghost, a, c, seen[mirror])
						}
					}
				}
			}
		}
	}
}

func TestNeighbors26Periodic(t *testing.T) {
	d, err := Decompose(unitDomain(12), 27, true) // 3x3x3
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 27; r++ {
		ls := links(d, r, 1)
		if len(ls) != 26 {
			t.Fatalf("rank %d has %d links, want 26", r, len(ls))
		}
		// In a 3x3x3 periodic grid, every link lands on a distinct rank.
		seen := map[int]bool{}
		for _, l := range ls {
			if seen[l.rank] {
				t.Fatalf("rank %d: duplicate peer %d", r, l.rank)
			}
			seen[l.rank] = true
		}
	}
}

func TestNeighborsCornerShifts(t *testing.T) {
	d, err := Decompose(unitDomain(12), 27, true)
	if err != nil {
		t.Fatal(err)
	}
	// Block (0,0,0)'s link to the far corner (2,2,2) wraps in all three
	// dimensions, and is its only link there.
	corner := peerLinks(links(d, 0, 1), 26)
	if len(corner) != 1 || corner[0].shift != geom.V(12, 12, 12) {
		t.Errorf("corner links = %+v, want one with shift (12,12,12)", corner)
	}
	// Interior block (1,1,1) has no periodic links.
	for _, l := range links(d, 13, 1) {
		if l.shift != (geom.Vec3{}) {
			t.Errorf("interior block has periodic link %+v", l)
		}
	}
}

func TestNeighborsNonPeriodicBoundary(t *testing.T) {
	d, err := Decompose(unitDomain(12), 27, false)
	if err != nil {
		t.Fatal(err)
	}
	// Corner block has only 7 neighbors without periodicity.
	if ls := links(d, 0, 1); len(ls) != 7 {
		t.Errorf("non-periodic corner has %d links, want 7", len(ls))
	}
	if ls := links(d, 13, 1); len(ls) != 26 {
		t.Errorf("interior block has %d links, want 26", len(ls))
	}
}

func TestNeighborsThinGridSelfLinks(t *testing.T) {
	// A 1-block decomposition: all 26 links point at the block itself,
	// with shifts covering all combinations of +-L and 0.
	d, err := Decompose(unitDomain(5), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ls := links(d, 0, 1)
	if len(ls) != 26 {
		t.Fatalf("1-block links = %d, want 26", len(ls))
	}
	shifts := map[geom.Vec3]bool{}
	for _, l := range ls {
		if l.rank != 0 || l.shift == (geom.Vec3{}) {
			t.Fatalf("self link %+v, want rank 0 across a wrap", l)
		}
		shifts[l.shift] = true
	}
	if len(shifts) != 26 {
		t.Errorf("expected 26 distinct shifts, got %d", len(shifts))
	}
}

func TestNeighborShiftMapsIntoExpandedBounds(t *testing.T) {
	// The defining property of a shift: a particle near my boundary, after
	// adding it, lands inside (or near) the peer's bounds.
	d, err := Decompose(unitDomain(10), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	for r := 0; r < d.NumBlocks(); r++ {
		b := d.Block(r).Bounds
		for _, l := range links(d, r, 1) {
			peer := d.Block(l.rank).Bounds
			nbBounds := peer.Expand(1.0)
			// Sample points in my block within 1.0 of the face toward the
			// peer: the side its shifted centre lies on, per axis.
			toward := peer.Center().Sub(b.Center().Add(l.shift))
			for i := 0; i < 20; i++ {
				p := geom.Vec3{
					X: sampleToward(rng, b.Min.X, b.Max.X, toward.X, 1.0),
					Y: sampleToward(rng, b.Min.Y, b.Max.Y, toward.Y, 1.0),
					Z: sampleToward(rng, b.Min.Z, b.Max.Z, toward.Z, 1.0),
				}
				if !nbBounds.Contains(p.Add(l.shift)) {
					t.Fatalf("rank %d -> %+v: shifted point %v not in expanded peer bounds %+v",
						r, l, p.Add(l.shift), nbBounds)
				}
			}
		}
	}
}

func sampleToward(rng *rand.Rand, lo, hi, toward, ghost float64) float64 {
	switch {
	case toward < 0:
		return lo + rng.Float64()*math.Min(ghost, hi-lo)
	case toward > 0:
		return hi - rng.Float64()*math.Min(ghost, hi-lo)
	default:
		return lo + rng.Float64()*(hi-lo)
	}
}
