package halo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
)

func TestFindValidation(t *testing.T) {
	pos := []geom.Vec3{{X: 1, Y: 1, Z: 1}}
	if _, err := Find(pos, Config{BoxSize: 0, LinkingLength: 1}); err == nil {
		t.Error("zero box accepted")
	}
	if _, err := Find(pos, Config{BoxSize: 10, LinkingLength: 0}); err == nil {
		t.Error("zero linking length accepted")
	}
	if _, err := Find(pos, Config{BoxSize: 10, LinkingLength: 6}); err == nil {
		t.Error("oversized linking length accepted")
	}
}

func cluster(rng *rand.Rand, center geom.Vec3, n int, sigma float64, L float64) []geom.Vec3 {
	out := make([]geom.Vec3, n)
	for i := range out {
		out[i] = cosmo.Wrap(center.Add(geom.V(
			rng.NormFloat64()*sigma, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)), L)
	}
	return out
}

func TestTwoSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	const L = 20.0
	pos := append(
		cluster(rng, geom.V(5, 5, 5), 50, 0.1, L),
		cluster(rng, geom.V(15, 15, 15), 30, 0.1, L)...)
	halos, err := Find(pos, Config{BoxSize: L, LinkingLength: 0.5, MinMembers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 2 {
		t.Fatalf("found %d halos, want 2", len(halos))
	}
	if halos[0].Mass() != 50 || halos[1].Mass() != 30 {
		t.Errorf("masses %d, %d; want 50, 30", halos[0].Mass(), halos[1].Mass())
	}
	if halos[0].Center.Dist(geom.V(5, 5, 5)) > 0.2 {
		t.Errorf("halo 0 center %v, want ~(5,5,5)", halos[0].Center)
	}
	if halos[1].Center.Dist(geom.V(15, 15, 15)) > 0.2 {
		t.Errorf("halo 1 center %v", halos[1].Center)
	}
	if halos[0].Radius <= 0 || halos[0].Radius > 1 {
		t.Errorf("halo 0 radius %v", halos[0].Radius)
	}
}

func TestMinMembersFiltersFieldParticles(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	const L = 20.0
	pos := cluster(rng, geom.V(10, 10, 10), 40, 0.1, L)
	// Sprinkle isolated field particles.
	for i := 0; i < 30; i++ {
		pos = append(pos, geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L))
	}
	halos, err := Find(pos, Config{BoxSize: L, LinkingLength: 0.4, MinMembers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 1 {
		t.Fatalf("found %d halos, want 1 (field particles must not form halos)", len(halos))
	}
	if halos[0].Mass() < 40 {
		t.Errorf("halo lost members: %d", halos[0].Mass())
	}
}

func TestPeriodicHaloAcrossBoundary(t *testing.T) {
	// A cluster straddling the box corner must be found as one halo with
	// its center near the corner.
	rng := rand.New(rand.NewSource(105))
	const L = 10.0
	pos := cluster(rng, geom.V(0.05, 0.05, 0.05), 60, 0.2, L)
	halos, err := Find(pos, Config{BoxSize: L, LinkingLength: 0.8, MinMembers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 1 {
		t.Fatalf("found %d halos, want 1", len(halos))
	}
	if halos[0].Mass() != 60 {
		t.Errorf("halo mass %d, want 60", halos[0].Mass())
	}
	// Center is near the corner modulo the box.
	d := cosmo.MinImage(halos[0].Center, geom.V(0.05, 0.05, 0.05), L).Norm()
	if d > 0.3 {
		t.Errorf("center %v is %v away from the true corner cluster", halos[0].Center, d)
	}
}

func TestUniformLatticeNoHalos(t *testing.T) {
	const n = 8
	const L = 8.0
	pts := cosmo.LatticePositions(n, L)
	halos, err := Find(pts, Config{BoxSize: L, LinkingLength: 0.5, MinMembers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 0 {
		t.Errorf("lattice with b < spacing formed %d halos", len(halos))
	}
	// With b >= spacing the whole lattice links into one group.
	halos, err = Find(pts, Config{BoxSize: L, LinkingLength: 1.01, MinMembers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 1 || halos[0].Mass() != n*n*n {
		t.Errorf("percolating lattice: %d halos", len(halos))
	}
}

func TestLinkingChain(t *testing.T) {
	// FOF is transitive: a chain of particles each within b of the next is
	// one group even though the ends are far apart.
	var pos []geom.Vec3
	for i := 0; i < 20; i++ {
		pos = append(pos, geom.V(1+float64(i)*0.4, 5, 5))
	}
	halos, err := Find(pos, Config{BoxSize: 20, LinkingLength: 0.45, MinMembers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 1 || halos[0].Mass() != 20 {
		t.Fatalf("chain not linked: %v", halos)
	}
	// Shorter linking length breaks the chain into singletons.
	halos, err = Find(pos, Config{BoxSize: 20, LinkingLength: 0.35, MinMembers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 0 {
		t.Fatalf("broken chain still formed halos: %v", halos)
	}
}

func TestDeterministicAcrossOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	const L = 15.0
	pos := append(
		cluster(rng, geom.V(3, 3, 3), 25, 0.2, L),
		cluster(rng, geom.V(10, 10, 10), 35, 0.2, L)...)
	a, err := Find(pos, Config{BoxSize: L, LinkingLength: 0.7, MinMembers: 5})
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]geom.Vec3, len(pos))
	for i := range pos {
		rev[len(pos)-1-i] = pos[i]
	}
	b, err := Find(rev, Config{BoxSize: L, LinkingLength: 0.7, MinMembers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("halo count depends on input order: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Mass() != b[i].Mass() {
			t.Errorf("halo %d mass differs across orders", i)
		}
		if math.Abs(a[i].Radius-b[i].Radius) > 1e-9 {
			t.Errorf("halo %d radius differs across orders", i)
		}
	}
}
