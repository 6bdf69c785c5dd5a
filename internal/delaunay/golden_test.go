package delaunay

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
	"repro/internal/wire"
)

// padImages appends the periodic images within pad of the box [0,L)^3 in
// the order density.Pipeline.addImages uses (tracer-major, dz/dy/dx-minor),
// so the golden input is the point sequence a density step triangulates.
func padImages(pts []geom.Vec3, L, pad float64) []geom.Vec3 {
	outer := geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)).Expand(pad)
	n := len(pts)
	for i := 0; i < n; i++ {
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					img := pts[i].Add(geom.V(float64(dx)*L, float64(dy)*L, float64(dz)*L))
					if outer.Contains(img) {
						pts = append(pts, img)
					}
				}
			}
		}
	}
	return pts
}

// jitteredLattice returns ng^3 points of the unit-spaced lattice in
// [0,ng)^3, each displaced by up to amp of a cell along every axis.
func jitteredLattice(seed int64, ng int, amp float64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, 0, ng*ng*ng)
	for k := 0; k < ng; k++ {
		for j := 0; j < ng; j++ {
			for i := 0; i < ng; i++ {
				pts = append(pts, geom.V(
					float64(i)+0.5+amp*(rng.Float64()-0.5),
					float64(j)+0.5+amp*(rng.Float64()-0.5),
					float64(k)+0.5+amp*(rng.Float64()-0.5)))
			}
		}
	}
	return pts
}

// goldenInputs are the four seeded point sets whose triangulations
// TestBuildGoldenDigests pins. Only lattice-6-dups is cospherical, so its
// tets are one valid choice among many; the other three have a unique
// Delaunay triangulation.
func goldenInputs() map[string][]geom.Vec3 {
	lattice := cosmo.LatticePositions(6, 6)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 50; i++ {
		lattice = append(lattice, lattice[rng.Intn(216)])
	}
	return map[string][]geom.Vec3{
		"uniform-2000":       randomCloud(401, 2000, 10),
		"clustered-2000":     cosmo.ClusteredPositions(2000, 10, cosmo.DefaultClusterParams()),
		"jittered-12-padded": padImages(jitteredLattice(402, 12, 0.8), 12, 3),
		"lattice-6-dups":     lattice,
	}
}

// triangulationDigest hashes everything Build returns besides the caller's
// own points: every tet's vertices and neighbours, in order, then Rep.
func triangulationDigest(tr *Triangulation) string {
	w := wire.NewWriter(64*len(tr.Tets) + 8*len(tr.Rep))
	for _, t := range tr.Tets {
		for _, v := range t.V {
			w.I64(int64(v))
		}
		for _, nb := range t.Nb {
			w.I64(int64(nb))
		}
	}
	for _, r := range tr.Rep {
		w.I64(int64(r))
	}
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:])
}

// tetSet returns the triangulation's tets as sorted vertex quadruples, in
// sorted order: the tets as a set, whatever order they were created in.
// label, when not nil, renames vertex v to label[v] first.
func tetSet(tr *Triangulation, label []int) [][4]int {
	set := make([][4]int, len(tr.Tets))
	for i, t := range tr.Tets {
		q := t.V
		if label != nil {
			for f, v := range q {
				q[f] = label[v]
			}
		}
		slices.Sort(q[:])
		set[i] = q
	}
	slices.SortFunc(set, func(a, b [4]int) int { return slices.Compare(a[:], b[:]) })
	return set
}

// tetSetDigest hashes tetSet(tr, nil): it changes when a tet does, and not
// when only the insertion order, the tet order or the neighbour links do.
func tetSetDigest(tr *Triangulation) string {
	set := tetSet(tr, nil)
	w := wire.NewWriter(32 * len(set))
	for _, q := range set {
		for _, v := range q {
			w.I64(int64(v))
		}
	}
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestBuildGoldenDigests pins Build's exact output — tet vertices, tet
// order, neighbour links and the duplicate map — on four seeded inputs, and
// the tets as a set. The set digests of the three general-position inputs
// were produced by the builder that inserted in input order, so they prove
// that inserting in BRIO + Hilbert order changed no tet: only the creation
// order, and with it the tet order, the links and dtfe's summation order,
// moved, and the ordered digests were re-pinned once for it. The
// cospherical lattice's set moved too — its Delaunay tets are not unique,
// and which ones Bowyer–Watson keeps depends on the order.
func TestBuildGoldenDigests(t *testing.T) {
	want := map[string]struct {
		tets   int
		digest string
		set    string
	}{
		"uniform-2000":       {12938, "02b397154cc0bb3b174107b03f40e57498c666f16d27c391894ca79b7925ed26", "e289a92500e126c0449820faa404e883f5abf2cf9dc08b87e187a8e311319b48"},
		"clustered-2000":     {12872, "0bcb95c3d6ba436f6b8afa9291c851248627ea559964a6408e0aa2fedde5f745", "78ad9e82d145b8cf543b7a3d4e31c5f98dfcc20e9c8d39ce66e9aafcc238953e"},
		"jittered-12-padded": {37956, "276b648571bc092e19a9e6f0bc56951ec82aa50e52f150287b2a1ae050b03156", "191913bbc3639fc70a67a722f71040d76cfd71aed10d42329651bc8eb0b0701c"},
		"lattice-6-dups":     {750, "1869cbf7775d2d2c0456679c5d22fd1de6eda37df22118e2755c5f6d1e19542c", "2c7db7b0c36c5d8c8556bee49514a302a91aab8e555972b6bbc8f9c9a23ccf0e"},
	}
	for name, pts := range goldenInputs() {
		tr, err := Build(pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := want[name]
		if got := tetSetDigest(tr); len(tr.Tets) != w.tets || got != w.set {
			t.Errorf("%s: %d points -> %d tets, set digest %s; want %d tets, set digest %s",
				name, len(pts), len(tr.Tets), got, w.tets, w.set)
		}
		if got := triangulationDigest(tr); got != w.digest {
			t.Errorf("%s: digest %s, want %s", name, got, w.digest)
		}
	}
}

// TestBuildGoldenCounts pins the exact work of Build on the golden inputs.
// The counts are functions of the input (TestStatsExactAndRepeatable), so a
// change to the insertion order, the walk or the cavity search shows here
// without wall-clock noise. Per point, the input-order builder walked 30
// steps and ran 40 InSphere tests on uniform-2000, and 35 and 57 on
// jittered-12-padded; here it is 7 and 45, and 7 and 44. A uniform cloud in
// random index order is already the ideal order for cavity sizes, so on it
// the Hilbert rounds cost 12 % more InSphere tests and win on the walk; the
// padded lattice, which arrives lattice-major and then image by image, wins
// on both.
func TestBuildGoldenCounts(t *testing.T) {
	type counts struct{ created, walk, insphere, cavity int64 }
	want := map[string]counts{
		"uniform-2000":       {55655, 13558, 89171, 42511},
		"clustered-2000":     {52757, 13122, 83921, 39735},
		"jittered-12-padded": {158387, 40831, 254263, 120096},
		"lattice-6-dups":     {3543, 887, 5527, 2429},
	}
	for name, pts := range goldenInputs() {
		var s Builder
		if _, err := s.Build(pts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := s.Stats()
		if got := (counts{st.TetsCreated, st.WalkSteps, st.InSphereTests, st.CavityTets}); got != want[name] {
			t.Errorf("%s: tets created, walk steps, InSphere tests, cavity tets = %+v, want %+v", name, got, want[name])
		}
	}
}

// The insertion order depends only on the coordinates, so a shuffled input
// triangulates into the same tets once its indices are mapped back — on the
// cospherical lattice too, whose tets are one choice among many. Vertices
// are named by the lowest original index of their coincident points, which
// is what the unshuffled build's vertices are.
func TestBuildPermutationInvariant(t *testing.T) {
	for name, pts := range goldenInputs() {
		tr, err := Build(pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		perm := rand.New(rand.NewSource(403)).Perm(len(pts)) // shuffled[j] = pts[perm[j]]
		shuffled := make([]geom.Vec3, len(pts))
		label := make([]int, len(pts))
		for j, i := range perm {
			shuffled[j] = pts[i]
			label[j] = tr.Representative(i)
		}
		str, err := Build(shuffled)
		if err != nil {
			t.Fatalf("%s shuffled: %v", name, err)
		}
		if !slices.Equal(tetSet(str, label), tetSet(tr, nil)) {
			t.Errorf("%s: the shuffled input's tets differ from the input's", name)
		}
		for j := range shuffled {
			if label[str.Representative(j)] != label[j] {
				t.Fatalf("%s: shuffled point %d merged into %d, a different point", name, j, str.Representative(j))
			}
		}
	}
}
