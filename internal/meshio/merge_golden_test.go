package meshio_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/nbody"
)

// mergeInput is one seeded particle set with the block count it is
// tessellated over before the merge.
type mergeInput struct {
	name   string
	pts    []geom.Vec3
	L      float64
	ghost  float64
	blocks int
}

// run tessellates in and returns the per-block meshes the merge takes.
func (in mergeInput) run(t testing.TB) ([]*meshio.BlockMesh, geom.Box) {
	t.Helper()
	ps := make([]diy.Particle, len(in.pts))
	for i, p := range in.pts {
		ps[i] = diy.Particle{ID: int64(i), Pos: p}
	}
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(in.L, in.L, in.L))
	out, err := core.Run(core.Config{Domain: domain, Periodic: true, GhostSize: in.ghost}, ps, in.blocks)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	return out.Meshes, domain
}

// jitteredCube is a side³ lattice at unit spacing with every point moved by
// up to jitter/2 of the spacing along each axis.
func jitteredCube(seed int64, side int, jitter float64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, 0, side*side*side)
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				pts = append(pts, geom.V(
					float64(x)+0.5+(rng.Float64()-0.5)*jitter,
					float64(y)+0.5+(rng.Float64()-0.5)*jitter,
					float64(z)+0.5+(rng.Float64()-0.5)*jitter))
			}
		}
	}
	return pts
}

// nbodySnapshot is a 16³ N-body run from the realization seeded seed,
// evolved steps steps.
func nbodySnapshot(t testing.TB, seed int64, steps int) []geom.Vec3 {
	t.Helper()
	cfg := nbody.DefaultConfig(16)
	cfg.Cosmo.Seed = seed
	sim, err := nbody.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(steps, nil)
	return sim.Pos
}

func haloMock(seed int64) []geom.Vec3 {
	cp := cosmo.DefaultClusterParams()
	cp.Seed = seed
	return cosmo.ClusteredPositions(16*16*16, 16, cp)
}

// mergeGoldens pins MergeCanonical's output on seeded inputs across block
// counts {2, 4, 8}: jittered 8³ lattices (the daemon tenants' shape),
// jittered 12³ lattices, an exact lattice (cospherical generators), 16³ halo
// mocks and 16³ N-body snapshots. want is "<sha256 of EncodeV1>:<len>" for
// an input that merges and the error text verbatim, prefixed "error: ", for
// one that does not. The digests were produced by running this file in a
// clone of commit c0e0c87 — the last one with the map-based merge — so they
// hold the flat rewrite to the bytes and the lazy solve order of the code it
// replaced, with three exceptions. There the weld joined two vertices of
// one cell, and the merge failed with a degenerate-vertex error; since the
// weld keeps a cell's vertices apart, nbody16 seeds 6 and 18 give their
// 8-block digest, and jitter8 seed 278 gives one digest at 2 and 4 blocks.
var mergeGoldens = []struct {
	family string
	seed   int64
	blocks int
	want   string
}{
	{"jitter8", 1, 2, "34b39febf97386b9a4e303cbc6598f9f674f4b6b3169dfa7ad9bdac1b0d9024f:405136"},
	{"jitter8", 1, 4, "34b39febf97386b9a4e303cbc6598f9f674f4b6b3169dfa7ad9bdac1b0d9024f:405136"},
	{"jitter8", 1, 8, "34b39febf97386b9a4e303cbc6598f9f674f4b6b3169dfa7ad9bdac1b0d9024f:405136"},
	{"jitter8", 2, 2, "3deef4ad3cb2504ac4ff7daaaa08aeb10e349aa76aa2e1a327e1c4730ca07651:400960"},
	{"jitter8", 2, 4, "3deef4ad3cb2504ac4ff7daaaa08aeb10e349aa76aa2e1a327e1c4730ca07651:400960"},
	{"jitter8", 2, 8, "3deef4ad3cb2504ac4ff7daaaa08aeb10e349aa76aa2e1a327e1c4730ca07651:400960"},
	{"jitter8", 3, 2, "3f6c381a5ff4b376dc87bdc04acbce6681ad710e230ed63f5fbeaabf657194ef:404824"},
	{"jitter8", 4, 2, "adc62da4bc6a05ba9810d82a471bfa7bb4a4db676024818934bd615fa258da0b:401656"},
	{"jitter8", 5, 2, "b263d0e4f17d497d5f2adaa2c4420d976f3e7e1bb671667777611cd5fdfd02de:400504"},
	{"jitter8", 6, 2, "2dd9116b18dd81a4e34913b8eec237e53fc06bad30977b62fc2203ffa1374f29:402184"},
	{"jitter8", 7, 2, "f877bd264636985d74d25d6f57cd98d898f2080a45b470da6580f2af473da0a5:403744"},
	{"jitter8", 8, 2, "379a062ac44ad51028db76281cb577f818e5c5bfbe63db4f9f95c6aa524fff47:398896"},
	{"jitter8", 278, 2, "4c4bb354121d529ce8f75f34c2db1897707224009b3fcde1241fa84d6a1ef453:401608"},
	{"jitter8", 278, 4, "4c4bb354121d529ce8f75f34c2db1897707224009b3fcde1241fa84d6a1ef453:401608"},
	{"jitter12", 1, 2, "a775120e7c90dfe62d6dbd88e8720e8e02c1b76da5c298f1e680701a81c5280e:1312536"},
	{"jitter12", 1, 4, "a775120e7c90dfe62d6dbd88e8720e8e02c1b76da5c298f1e680701a81c5280e:1312536"},
	{"jitter12", 1, 8, "a775120e7c90dfe62d6dbd88e8720e8e02c1b76da5c298f1e680701a81c5280e:1312536"},
	{"jitter12", 2, 2, "0fdbe4dc4fc57ba4244f0517f2e758e941c4c4f831798966d701b6ea0e4b1717:1318752"},
	{"jitter12", 2, 4, "0fdbe4dc4fc57ba4244f0517f2e758e941c4c4f831798966d701b6ea0e4b1717:1318752"},
	{"jitter12", 2, 8, "0fdbe4dc4fc57ba4244f0517f2e758e941c4c4f831798966d701b6ea0e4b1717:1318752"},
	{"jitter12", 3, 2, "1e14b0e2f70c67f2600426a1a01c14c8ac7afc7eb6aa34332203fc513c304fb7:1318176"},
	{"exact6", 1, 2, "f7f8f17b851b02fbb7853fcbeeba91ffc13ca1635762bcc0a2cf70aa84b823eb:56040"},
	{"exact6", 1, 4, "f7f8f17b851b02fbb7853fcbeeba91ffc13ca1635762bcc0a2cf70aa84b823eb:56040"},
	{"exact6", 1, 8, "f7f8f17b851b02fbb7853fcbeeba91ffc13ca1635762bcc0a2cf70aa84b823eb:56040"},
	{"halo16", 1, 2, "ba7c212a17d2eaba7356071a8e898ab927ed49b939fe5e947d02099c8074c5d5:3011552"},
	{"halo16", 1, 4, "ba7c212a17d2eaba7356071a8e898ab927ed49b939fe5e947d02099c8074c5d5:3011552"},
	{"halo16", 1, 8, "ba7c212a17d2eaba7356071a8e898ab927ed49b939fe5e947d02099c8074c5d5:3011552"},
	{"halo16", 4, 4, "b2de374eadb720bc030e26700d21b8b89bb5b751c5b94e867881f2673cabba13:3020792"},
	{"halo16", 4, 8, "8ab42c0ad1f87dcc86552fc8bf2bebad175609f476115bbf4053ee05dc829cc6:3020804"},
	{"nbody16", 1, 2, "007fe4bad1e3d3a0485e202808793f3724bd840c3b0afb3c7fb62ea103848bd6:2906312"},
	{"nbody16", 1, 4, "007fe4bad1e3d3a0485e202808793f3724bd840c3b0afb3c7fb62ea103848bd6:2906312"},
	{"nbody16", 1, 8, "007fe4bad1e3d3a0485e202808793f3724bd840c3b0afb3c7fb62ea103848bd6:2906312"},
	{"nbody16", 2, 2, "3825ff3db759f9829f5efb95e87e0756046f4d363ee1d989887c565622b48e1f:2903432"},
	{"nbody16", 6, 2, "fd38a760dbf8246cf87ae1fca058d9ed113cfe3a621c14bc993af91816378533:2897048"},
	{"nbody16", 6, 8, "fd38a760dbf8246cf87ae1fca058d9ed113cfe3a621c14bc993af91816378533:2897048"},
	{"nbody16", 18, 4, "13d199628367c226ff3ff37c570ed2ffb03e65dd250aff3be6a4e6710f13d2d5:2890112"},
	{"nbody16", 18, 8, "13d199628367c226ff3ff37c570ed2ffb03e65dd250aff3be6a4e6710f13d2d5:2890112"},
}

// goldenInput generates the particle set of one mergeGoldens row.
func goldenInput(t testing.TB, family string, seed int64, blocks int) mergeInput {
	in := mergeInput{name: fmt.Sprintf("%s-%d/b%d", family, seed, blocks), blocks: blocks}
	switch family {
	case "jitter8":
		in.pts, in.L, in.ghost = jitteredCube(seed, 8, 0.9), 8, 3
	case "jitter12":
		in.pts, in.L, in.ghost = jitteredCube(seed, 12, 0.6), 12, 3
	case "exact6":
		in.pts, in.L, in.ghost = jitteredCube(seed, 6, 0), 6, 3
	case "halo16":
		in.pts, in.L, in.ghost = haloMock(seed), 16, 4
	case "nbody16":
		in.pts, in.L, in.ghost = nbodySnapshot(t, seed, 20), 16, 4
	default:
		t.Fatalf("unknown golden family %q", family)
	}
	return in
}

func mergeDigest(t testing.TB, in mergeInput) string {
	t.Helper()
	meshes, domain := in.run(t)
	m, err := meshio.MergeCanonical(meshes, domain, true)
	if err != nil {
		return "error: " + err.Error()
	}
	enc := meshio.EncodeV1(m)
	sum := sha256.Sum256(enc)
	return fmt.Sprintf("%s:%d", hex.EncodeToString(sum[:]), len(enc))
}

func TestMergeCanonicalGoldenDigests(t *testing.T) {
	for _, g := range mergeGoldens {
		in := goldenInput(t, g.family, g.seed, g.blocks)
		if got := mergeDigest(t, in); got != g.want {
			t.Errorf("%s:\n got %s\nwant %s", in.name, got, g.want)
		}
	}
}

// The merge allocates its outputs and scratch once each, sized by a counting
// pass: a fixed handful of allocations however many cells it merges. (The
// map-based merge it replaced made 26 925 on the 125-cell fixture.)
func TestMergeCanonicalAllocsBounded(t *testing.T) {
	const ceiling = 64
	small, domain := mergeFixture(t, 2) // 125 cells
	large, largeDomain := goldenInput(t, "jitter8", 1, 2).run(t)
	for _, tc := range []struct {
		cells  int
		meshes []*meshio.BlockMesh
		domain geom.Box
	}{{125, small, domain}, {512, large, largeDomain}} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := meshio.MergeCanonical(tc.meshes, tc.domain, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%d cells: %.0f allocations per merge, want at most %d", tc.cells, allocs, ceiling)
		}
	}
}

// Decoding a block and cloning a mesh size every array before filling it,
// so they make as many allocations for the 512-cell jitter8 block as for
// the 125-cell fixture.
func TestDecodeAndCloneAllocsFlat(t *testing.T) {
	small, _ := mergeFixture(t, 1)
	large, _ := goldenInput(t, "jitter8", 1, 1).run(t)
	encode := func(m *meshio.BlockMesh, enc func(*meshio.BlockMesh) ([]byte, error)) func() {
		data, err := enc(m)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := meshio.DecodeBlockMesh(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range []struct {
		name string
		run  func(m *meshio.BlockMesh) func()
	}{
		{"decode", func(m *meshio.BlockMesh) func() { return encode(m, meshio.EncodeV2) }},
		{"clone", func(m *meshio.BlockMesh) func() { return func() { m.Clone() } }},
	} {
		a := testing.AllocsPerRun(5, op.run(small[0]))
		b := testing.AllocsPerRun(5, op.run(large[0]))
		if a != b {
			t.Errorf("%s: %.0f allocations for %d cells, %.0f for %d", op.name, a, small[0].NumCells(), b, large[0].NumCells())
		}
	}
}

func BenchmarkMergeCanonical(b *testing.B) {
	for _, in := range []mergeInput{
		goldenInput(b, "jitter8", 1, 2),
		goldenInput(b, "nbody16", 1, 4),
	} {
		meshes, domain := in.run(b)
		b.Run(fmt.Sprintf("cells=%d", len(in.pts)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := meshio.MergeCanonical(meshes, domain, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzMergeCanonical drives arbitrary bytes through the decoder and, when
// they decode, through MergeCanonical of the one mesh over its own extents,
// periodic and not: the public merge must never panic on a decodable mesh,
// every failure an error. The seeds are the block meshes of every
// mergeGoldens input.
func FuzzMergeCanonical(f *testing.F) {
	for _, g := range mergeGoldens {
		meshes, _ := goldenInput(f, g.family, g.seed, g.blocks).run(f)
		for _, m := range meshes {
			data, err := m.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := meshio.DecodeBlockMesh(data)
		if err != nil {
			return
		}
		for _, periodic := range []bool{false, true} {
			if merged, err := meshio.MergeCanonical([]*meshio.BlockMesh{m}, m.Extents, periodic); err == nil && merged == nil {
				t.Fatalf("periodic=%v: nil mesh without an error", periodic)
			}
		}
	})
}

// A regression seed that no longer decodes stops reaching the merge, and
// FuzzMergeCanonical then passes it without testing anything: every
// committed seed must still be a block DecodeBlockMesh reads.
func TestMergeCanonicalCorpusDecodes(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzMergeCanonical")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A one-argument corpus file: the header line, then []byte("...").
		header, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(arg, "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file (%v)", e.Name(), err)
		}
		if _, err := meshio.DecodeBlockMesh([]byte(data)); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}
