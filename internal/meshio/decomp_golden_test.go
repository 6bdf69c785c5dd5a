package meshio_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
)

// decompGoldens pins what a session writes on four 8³ inputs in a periodic
// 8-box — exact lattices with sites at half-integers ("half") and at
// integers ("int"), a jittered lattice and a halo mock — over both
// decompositions at 1, 2, 3, 4 and 8 blocks, at ghosts of 1.5, 2 and 2.5
// and at the grid's smallest block side (capped at half the box). Each line
// is
//
//	input kind blocks ghost raw canonical
//
// where raw digests every block's v1 encoding (EncodeV1, exact) in block
// order and canonical is MergeCanonical's "<digest>:<len>" of the same, or
// its error text. They were produced
// at the last commit whose grid linked its blocks by the 26-neighbourhood,
// and box adjacency reproduces every canonical digest and every grid raw
// digest below the block side. 28 raw digests moved:
//
//   - RCB at 1–3 blocks on the two exact lattices (24): each peer's links
//     now come in descending shift, the grid's order, and these inputs'
//     exact-distance ties follow the order ghosts arrive in (at 1 block the
//     RCB digests now equal the grid's);
//   - the grid on "int" at a ghost of exactly the block side, at 2, 3, 4
//     and 8 blocks (4): particles exactly one ghost away across a wrap, two
//     blocks off, now arrive as the closed ghost test says they should
//     (ghosts 6 424, 3 544, 9 280 and 13 312 become 7 002, 3 713, 10 980
//     and 17 064).
const decompGoldens = `
half grid 1 1.5 57dbbe2cbfe63e81 b4d2150476c557e9:130720
half grid 1 2 56181de1142330d9 b4d2150476c557e9:130720
half grid 1 2.5 fcb91d364b6c16b3 b4d2150476c557e9:130720
half grid 1 4 e66acbd722c65a1e b4d2150476c557e9:130720
half grid 2 1.5 3c5df734e42738e8 b4d2150476c557e9:130720
half grid 2 2 0f32d4625341a179 b4d2150476c557e9:130720
half grid 2 2.5 c489e4765826f376 b4d2150476c557e9:130720
half grid 2 4 5b3df053005c969b b4d2150476c557e9:130720
half grid 3 1.5 2a4a0cf4bc5e1d73 b4d2150476c557e9:130720
half grid 3 2 8f0dff0724fca978 b4d2150476c557e9:130720
half grid 3 2.5 d10abf9f1064feaa b4d2150476c557e9:130720
half grid 3 2.6666666666666665 4916df5a912c06ea b4d2150476c557e9:130720
half grid 4 1.5 202c38cfaa51ee36 b4d2150476c557e9:130720
half grid 4 2 a217aa5afa5a5ddb b4d2150476c557e9:130720
half grid 4 2.5 6df05ec010537d64 b4d2150476c557e9:130720
half grid 4 4 ecd56f099f15c5b5 b4d2150476c557e9:130720
half grid 8 1.5 332573ebbb4d3314 b4d2150476c557e9:130720
half grid 8 2 332573ebbb4d3314 b4d2150476c557e9:130720
half grid 8 2.5 1f8d79897fe22288 b4d2150476c557e9:130720
half grid 8 4 96fc2a5614ad6fd3 b4d2150476c557e9:130720
half rcb 1 1.5 57dbbe2cbfe63e81 b4d2150476c557e9:130720
half rcb 1 2 56181de1142330d9 b4d2150476c557e9:130720
half rcb 1 2.5 fcb91d364b6c16b3 b4d2150476c557e9:130720
half rcb 1 4 e66acbd722c65a1e b4d2150476c557e9:130720
half rcb 2 1.5 3c5df734e42738e8 b4d2150476c557e9:130720
half rcb 2 2 0f32d4625341a179 b4d2150476c557e9:130720
half rcb 2 2.5 c489e4765826f376 b4d2150476c557e9:130720
half rcb 2 4 5b3df053005c969b b4d2150476c557e9:130720
half rcb 3 1.5 b88406ece00403f2 b4d2150476c557e9:130720
half rcb 3 2 142b1263fdc459ce b4d2150476c557e9:130720
half rcb 3 2.5 c456cbbe92c56a4e b4d2150476c557e9:130720
half rcb 3 2.6666666666666665 9f0816a6fe66ff96 b4d2150476c557e9:130720
half rcb 4 1.5 3aa94a32135fdf55 b4d2150476c557e9:130720
half rcb 4 2 a095506f37158c4d b4d2150476c557e9:130720
half rcb 4 2.5 3384e58fcd725093 b4d2150476c557e9:130720
half rcb 4 4 e64b816ea3f25f63 b4d2150476c557e9:130720
half rcb 8 1.5 7c2f546060937b39 b4d2150476c557e9:130720
half rcb 8 2 7c2f546060937b39 b4d2150476c557e9:130720
half rcb 8 2.5 ec206a998ed60e3d b4d2150476c557e9:130720
half rcb 8 4 e587c256c0e8c360 b4d2150476c557e9:130720
int grid 1 1.5 c236be4d06141509 1ef732546287d3b6:130720
int grid 1 2 943aefba9d535a57 1ef732546287d3b6:130720
int grid 1 2.5 943aefba9d535a57 1ef732546287d3b6:130720
int grid 1 4 c236be4d06141509 1ef732546287d3b6:130720
int grid 2 1.5 8e0c5d36826f8a68 1ef732546287d3b6:130720
int grid 2 2 6bc5b857abd5232f 1ef732546287d3b6:130720
int grid 2 2.5 6bc5b857abd5232f 1ef732546287d3b6:130720
int grid 2 4 a6e069175725af7e 1ef732546287d3b6:130720
int grid 3 1.5 509ab307b171b2b8 1ef732546287d3b6:130720
int grid 3 2 4fd71b556ea44b24 1ef732546287d3b6:130720
int grid 3 2.5 00572424a1afb217 1ef732546287d3b6:130720
int grid 3 2.6666666666666665 8dcb0102a611e8b8 1ef732546287d3b6:130720
int grid 4 1.5 3a19455b3fb45164 1ef732546287d3b6:130720
int grid 4 2 2cd308115d22b808 1ef732546287d3b6:130720
int grid 4 2.5 2cd308115d22b808 1ef732546287d3b6:130720
int grid 4 4 fd7d04f9edb7a534 1ef732546287d3b6:130720
int grid 8 1.5 f3bb839d4db56120 1ef732546287d3b6:130720
int grid 8 2 4a4f149bba7f2ec5 1ef732546287d3b6:130720
int grid 8 2.5 4a4f149bba7f2ec5 1ef732546287d3b6:130720
int grid 8 4 b1f30ddb69600f02 1ef732546287d3b6:130720
int rcb 1 1.5 c236be4d06141509 1ef732546287d3b6:130720
int rcb 1 2 943aefba9d535a57 1ef732546287d3b6:130720
int rcb 1 2.5 943aefba9d535a57 1ef732546287d3b6:130720
int rcb 1 4 c236be4d06141509 1ef732546287d3b6:130720
int rcb 2 1.5 f4309f2c510b67ff 1ef732546287d3b6:130720
int rcb 2 2 70839cffa76b0d30 1ef732546287d3b6:130720
int rcb 2 2.5 b13a84eb01abd9fd 1ef732546287d3b6:130720
int rcb 2 4 a492805aaf001a72 1ef732546287d3b6:130720
int rcb 3 1.5 2b93327bf67ffbcb 1ef732546287d3b6:130720
int rcb 3 2 45d7766758219cfe 1ef732546287d3b6:130720
int rcb 3 2.5 3c03f2e97c424730 1ef732546287d3b6:130720
int rcb 3 2.6666666666666665 f40df02c8cba15ad 1ef732546287d3b6:130720
int rcb 4 1.5 1d6592e732aef5ab 1ef732546287d3b6:130720
int rcb 4 2 4fbf587f15d0ade7 1ef732546287d3b6:130720
int rcb 4 2.5 1c0fa891171fffb1 1ef732546287d3b6:130720
int rcb 4 4 44b244456f9735a0 1ef732546287d3b6:130720
int rcb 8 1.5 97530138293286d6 1ef732546287d3b6:130720
int rcb 8 2 e0e61cf0a32d933a 1ef732546287d3b6:130720
int rcb 8 2.5 5c716ad86538c262 1ef732546287d3b6:130720
int rcb 8 4 7467531af2a81ffb 1ef732546287d3b6:130720
jitter grid 1 1.5 43022d9fb56aac37 4e16f055c924daab:400252
jitter grid 1 2 7d89067944952c92 b263d0e4f17d497d:400504
jitter grid 1 2.5 570b81e724d8ced5 b263d0e4f17d497d:400504
jitter grid 1 4 3bee088f489c588e b263d0e4f17d497d:400504
jitter grid 2 1.5 aae56f8d698b3e61 4e16f055c924daab:400252
jitter grid 2 2 fec0c040cd3164ec b263d0e4f17d497d:400504
jitter grid 2 2.5 1245ee400c199944 b263d0e4f17d497d:400504
jitter grid 2 4 dbc1901e05085d6a b263d0e4f17d497d:400504
jitter grid 3 1.5 1066c1efc7218117 41580d69cf91607d:400432
jitter grid 3 2 dbab3a55ac6f4c29 b263d0e4f17d497d:400504
jitter grid 3 2.5 cc53adfc98315e9c b263d0e4f17d497d:400504
jitter grid 3 2.6666666666666665 11f5e73cbf87f2e4 b263d0e4f17d497d:400504
jitter grid 4 1.5 928e8128584e2b5e 4e16f055c924daab:400252
jitter grid 4 2 0620286faebea25b b263d0e4f17d497d:400504
jitter grid 4 2.5 a9fe8bb7b208e064 b263d0e4f17d497d:400504
jitter grid 4 4 3d7a2c574482f9ef b263d0e4f17d497d:400504
jitter grid 8 1.5 172faad6d55d36ca 2cff4b699849c45f:400240
jitter grid 8 2 410ff4a73262f461 b263d0e4f17d497d:400504
jitter grid 8 2.5 c667d0c46927a19d b263d0e4f17d497d:400504
jitter grid 8 4 45da1dbf5f9175e8 b263d0e4f17d497d:400504
jitter rcb 1 1.5 43022d9fb56aac37 4e16f055c924daab:400252
jitter rcb 1 2 7d89067944952c92 b263d0e4f17d497d:400504
jitter rcb 1 2.5 570b81e724d8ced5 b263d0e4f17d497d:400504
jitter rcb 1 4 3bee088f489c588e b263d0e4f17d497d:400504
jitter rcb 2 1.5 c93b215ec5bec624 4e16f055c924daab:400252
jitter rcb 2 2 54f2c76e26e2b19a b263d0e4f17d497d:400504
jitter rcb 2 2.5 e49634b46e6aee02 b263d0e4f17d497d:400504
jitter rcb 2 4 ad596e4f4d3aae95 b263d0e4f17d497d:400504
jitter rcb 3 1.5 d823ae9ff41ab9c7 4e16f055c924daab:400252
jitter rcb 3 2 29c9a54492444f24 b263d0e4f17d497d:400504
jitter rcb 3 2.5 22240284537a83a9 b263d0e4f17d497d:400504
jitter rcb 3 2.6666666666666665 d7233bcd874de236 b263d0e4f17d497d:400504
jitter rcb 4 1.5 04acdf8a9e98a5cf 4e16f055c924daab:400252
jitter rcb 4 2 374713e10f03f08a b263d0e4f17d497d:400504
jitter rcb 4 2.5 12aedf7c37e67cbd b263d0e4f17d497d:400504
jitter rcb 4 4 43d6a6023dc0cdce b263d0e4f17d497d:400504
jitter rcb 8 1.5 f4e1dc86e4d2a7f4 2cff4b699849c45f:400240
jitter rcb 8 2 f68858f38ac30efb b263d0e4f17d497d:400504
jitter rcb 8 2.5 016861defeaf1686 b263d0e4f17d497d:400504
jitter rcb 8 4 7287cdee83f4c96c b263d0e4f17d497d:400504
halo grid 1 1.5 798c90c2cafe3628 error: meshio: neighbor 72 of cell 3 is not among the merged cells
halo grid 1 2 6a4f7c41b35c0168 510c03a2b2ca6076:372832
halo grid 1 2.5 985cb908e08419f8 582cdf453a2e7363:373888
halo grid 1 4 32b6c3757113718c 93174d4504b58cee:374248
halo grid 2 1.5 2083b0be870570b9 error: meshio: neighbor 38 of cell 2 is not among the merged cells
halo grid 2 2 d5efd8c8b62d3748 error: meshio: neighbor 426 of cell 7 is not among the merged cells
halo grid 2 2.5 dabafa3cf46a15f8 9330fe976ce4e0dd:373912
halo grid 2 4 a872a5015e3920e1 93174d4504b58cee:374248
halo grid 3 1.5 80024513572302ff error: meshio: neighbor 72 of cell 3 is not among the merged cells
halo grid 3 2 6f68474d7998a2e9 error: meshio: neighbor 208 of cell 41 is not among the merged cells
halo grid 3 2.5 0f08c0d08eaef2a1 582cdf453a2e7363:373888
halo grid 3 2.6666666666666665 4667dfb19d15ed07 427526575058f4e2:373972
halo grid 4 1.5 25ceeec7ef3901c2 error: meshio: neighbor 137 of cell 1 is not among the merged cells
halo grid 4 2 9134d91d420c39a9 error: meshio: neighbor 52 of cell 5 is not among the merged cells
halo grid 4 2.5 09f2a398df0f81f9 fa5f4cf1049f0318:374068
halo grid 4 4 f68e4f48e6639cee 93174d4504b58cee:374248
halo grid 8 1.5 5df0c549f34f9d77 error: meshio: neighbor 137 of cell 1 is not among the merged cells
halo grid 8 2 32b1ab2612bf2584 error: meshio: neighbor 14 of cell 1 is not among the merged cells
halo grid 8 2.5 1ca390ba739d459d b88ff8b94030a113:374260
halo grid 8 4 14ec1321dda2a730 93174d4504b58cee:374248
halo rcb 1 1.5 798c90c2cafe3628 error: meshio: neighbor 72 of cell 3 is not among the merged cells
halo rcb 1 2 6a4f7c41b35c0168 510c03a2b2ca6076:372832
halo rcb 1 2.5 985cb908e08419f8 582cdf453a2e7363:373888
halo rcb 1 4 32b6c3757113718c 93174d4504b58cee:374248
halo rcb 2 1.5 282c6a480ac36da9 error: meshio: neighbor 72 of cell 3 is not among the merged cells
halo rcb 2 2 0d8517b613e70253 error: meshio: neighbor 426 of cell 7 is not among the merged cells
halo rcb 2 2.5 6ad606874d2f9c7d error: meshio: neighbor 426 of cell 7 is not among the merged cells
halo rcb 2 4 2382891b73de7106 93174d4504b58cee:374248
halo rcb 3 1.5 3bd83a6ba1c429ab error: meshio: neighbor 409 of cell 1 is not among the merged cells
halo rcb 3 2 6e13d116f5fd20a5 487926f07607897d:373240
halo rcb 3 2.5 eafa8a950b467458 67280dada540ed71:374032
halo rcb 3 2.6666666666666665 9487bc671961bf78 427526575058f4e2:373972
halo rcb 4 1.5 0d9329155fd7caf2 error: meshio: neighbor 137 of cell 1 is not among the merged cells
halo rcb 4 2 789897f6d58c62e8 error: meshio: neighbor 137 of cell 1 is not among the merged cells
halo rcb 4 2.5 c2b84b595212e197 error: meshio: neighbor 426 of cell 7 is not among the merged cells
halo rcb 4 4 0682c0f2345a30eb 93174d4504b58cee:374248
halo rcb 8 1.5 d30fceae6e9b041e error: meshio: neighbor 137 of cell 1 is not among the merged cells
halo rcb 8 2 c5b8b2fb09a53542 error: meshio: neighbor 137 of cell 1 is not among the merged cells
halo rcb 8 2.5 f39b75a60a3d00c7 error: meshio: neighbor 58 of cell 6 is not among the merged cells
halo rcb 8 4 ef444019b8e572a1 93174d4504b58cee:374248
`

// decompInput generates one decompGoldens input.
func decompInput(t testing.TB, name string) []geom.Vec3 {
	switch name {
	case "half":
		return jitteredCube(0, 8, 0)
	case "int":
		pts := make([]geom.Vec3, 0, 512)
		for z := 0; z < 8; z++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					pts = append(pts, geom.V(float64(x), float64(y), float64(z)))
				}
			}
		}
		return pts
	case "jitter":
		return jitteredCube(5, 8, 0.9)
	case "halo":
		cp := cosmo.DefaultClusterParams()
		cp.Seed = 3
		return cosmo.ClusteredPositions(512, 8, cp)
	}
	t.Fatalf("unknown input %q", name)
	return nil
}

// decompDigests runs one session pass and digests its raw blocks and their
// canonical merge.
func decompDigests(t testing.TB, pts []geom.Vec3, kind core.DecompKind, blocks int, ghost float64) (raw, canon string) {
	t.Helper()
	ps := make([]diy.Particle, len(pts))
	for i, p := range pts {
		ps[i] = diy.Particle{ID: int64(i), Pos: p}
	}
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8))
	cfg := core.Config{Domain: domain, Periodic: true, GhostSize: ghost, Decomposition: kind}
	out, err := core.Run(cfg, ps, blocks)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, m := range out.Meshes {
		enc := meshio.EncodeV1(m)
		fmt.Fprintf(h, "%d:", len(enc))
		h.Write(enc)
	}
	raw = hex.EncodeToString(h.Sum(nil))[:16]
	merged, err := meshio.MergeCanonical(out.Meshes, domain, true)
	if err != nil {
		return raw, "error: " + err.Error()
	}
	enc := meshio.EncodeV1(merged)
	sum := sha256.Sum256(enc)
	return raw, fmt.Sprintf("%s:%d", hex.EncodeToString(sum[:8]), len(enc))
}

func TestDecompositionGoldenDigests(t *testing.T) {
	inputs := map[string][]geom.Vec3{}
	for _, line := range strings.Split(strings.TrimSpace(decompGoldens), "\n") {
		f := strings.SplitN(line, " ", 6)
		if len(f) != 6 {
			t.Fatalf("malformed golden %q", line)
		}
		kind := core.DecomposeRegular
		if f[1] == "rcb" {
			kind = core.DecomposeRCB
		}
		blocks, err := strconv.Atoi(f[2])
		if err != nil {
			t.Fatal(err)
		}
		ghost, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if inputs[f[0]] == nil {
			inputs[f[0]] = decompInput(t, f[0])
		}
		raw, canon := decompDigests(t, inputs[f[0]], kind, blocks, ghost)
		if raw != f[4] || canon != f[5] {
			t.Errorf("%s %s b%d g%v:\n got %s %s\nwant %s %s", f[0], f[1], blocks, ghost, raw, canon, f[4], f[5])
		}
	}
}

// The early cull's counts and every block's bytes on the postproc-clustered
// input are the ones the pairwise-only early cull produced: the constants
// come from this test run at the parent of the commit that added the O(V)
// bounds in front of the pairwise scan.
func TestEarlyCullCountsAndBytesOnHaloMock(t *testing.T) {
	out := haloMockRun(t, 3)
	h := sha256.New()
	for _, m := range out.Meshes {
		h.Write(meshio.EncodeV1(m))
	}
	got := fmt.Sprintf("%+v %x", out.Counts, h.Sum(nil))
	const want = "{Sites:13824 Incomplete:0 CulledEarly:6796 CulledExact:1851 Kept:5177} 36488d1f36a5807f62dbaf20ed44470dc3890a034a6b3c5a1e6620237d04de26"
	if got != want {
		t.Errorf("counts and block digest\n got %s\nwant %s", got, want)
	}
}

// The exact-mesh row of the root package's format goldens: 1 000 seeded
// particles in a periodic 10-box, one session step on four RCB blocks at a
// ghost of 3, SHA-256 over the blocks' EncodeV1 bytes in block order. The
// digest was produced at commit 314ef2e by the then-current v1
// writer, whose bytes EncodeV1 still writes.
func TestMeshV1BlocksGolden(t *testing.T) {
	const L = 10.0
	rng := rand.New(rand.NewSource(20120615))
	ps := make([]diy.Particle, 1000)
	for i := range ps {
		ps[i] = diy.Particle{ID: int64(i), Pos: geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L)}
	}
	cfg := core.Config{
		Domain:        geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)),
		Periodic:      true,
		GhostSize:     3,
		Decomposition: core.DecomposeRCB,
	}
	out, err := core.Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, m := range out.Meshes {
		h.Write(meshio.EncodeV1(m))
	}
	const want = "107ddcbf2b575c3d073454dab74dd311cd2e2125070d4b580af045c103733e54"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("mesh-v1 blocks %s, want %s", got, want)
	}
}
