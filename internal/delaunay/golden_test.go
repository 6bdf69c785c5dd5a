package delaunay

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
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
// TestBuildGoldenDigests pins.
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

// TestBuildGoldenDigests pins Build's exact output — tet vertices, tet
// order, neighbour links and the duplicate map — on four seeded inputs.
// The digests were produced by this test at the parent of the commit that
// rebuilt the insertion path (free list, edge table, int32 slots), so they
// prove that rewrite changed no tet; dtfe sums star volumes in tet order
// and the density grid bytes follow from it.
func TestBuildGoldenDigests(t *testing.T) {
	want := map[string]struct {
		tets   int
		digest string
	}{
		"uniform-2000":       {12938, "0a2dc6ffe80de133c47c117f4ffce462b2ea03f9bf9e96c86a403d582e90990a"},
		"clustered-2000":     {12872, "bc088e73e626c49031c0832a59809bdaec563522f715c0ea3d4884812002a2aa"},
		"jittered-12-padded": {37956, "0ba3616af95371f5c9c52899e0d835a31ef3ffbdea79b941935338837aca9d07"},
		"lattice-6-dups":     {750, "3ff1f82d43e20373b4263e90613923da027a2c0e0d2a151df43b0239ee889fc7"},
	}
	for name, pts := range goldenInputs() {
		tr, err := Build(pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := triangulationDigest(tr)
		if w := want[name]; len(tr.Tets) != w.tets || got != w.digest {
			t.Errorf("%s: %d points -> %d tets, digest %s; want %d tets, digest %s",
				name, len(pts), len(tr.Tets), got, w.tets, w.digest)
		}
	}
}
