package meshio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/nbody"
	"repro/internal/voronoi"
)

// buildTestCells computes a small periodic tessellation to exercise the
// data model with realistic cells: every point's periodic images within
// L/2 of the box are indexed beside it, and each cell is clipped from the
// cube of side L around its site into one pool the cells share.
func buildTestCells(t testing.TB, n int, L float64, seed int64) []*voronoi.Cell {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := L / float64(n)
	var pts []geom.Vec3
	var ids []int64
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pts = append(pts, geom.V(
					(float64(x)+0.5)*h+(rng.Float64()-0.5)*0.8*h,
					(float64(y)+0.5)*h+(rng.Float64()-0.5)*0.8*h,
					(float64(z)+0.5)*h+(rng.Float64()-0.5)*0.8*h))
				ids = append(ids, int64(len(ids)))
			}
		}
	}
	sites := len(pts)
	margin := geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)).Expand(L / 2)
	for i, p := range pts[:sites] {
		for sx := -1.0; sx <= 1; sx++ {
			for sy := -1.0; sy <= 1; sy++ {
				for sz := -1.0; sz <= 1; sz++ {
					img := p.Add(geom.V(sx*L, sy*L, sz*L))
					if (sx != 0 || sy != 0 || sz != 0) && margin.Contains(img) {
						pts, ids = append(pts, img), append(ids, int64(i))
					}
				}
			}
		}
	}
	ix := voronoi.NewIndex(pts, ids, 0)
	s, pool := voronoi.NewScratch(), new(voronoi.CellPool)
	cells := make([]*voronoi.Cell, sites)
	for i := range cells {
		c, err := voronoi.ComputeCellPooled(ix, pts[i], ids[i], geom.Cube(pts[i], L/2), s, pool)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = c
	}
	return cells
}

func TestBuildBlockMeshBasics(t *testing.T) {
	cells := buildTestCells(t, 4, 4, 68)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4))
	m := new(MeshBuilder).Build(cells, ext, 0)
	if m.NumCells() != len(cells) {
		t.Fatalf("NumCells = %d, want %d", m.NumCells(), len(cells))
	}
	for i, c := range cells {
		if math.Abs(m.Volumes[i]-c.Volume()) > 1e-12 {
			t.Fatalf("cell %d volume mismatch", i)
		}
		if m.ParticleIDs[i] != c.SiteID {
			t.Fatalf("cell %d id mismatch", i)
		}
		if lo, hi := m.Faces(i); hi-lo != len(c.Faces) {
			t.Fatalf("cell %d face count mismatch", i)
		}
	}
	// Vertex welding: total references exceed unique vertices (sharing).
	s := m.ComputeStats()
	if s.VertSharing <= 1.5 {
		t.Errorf("vertex sharing = %v, expected well above 1 for a tessellation", s.VertSharing)
	}
	if s.FacesPerCell < 4 {
		t.Errorf("faces per cell = %v, implausibly low", s.FacesPerCell)
	}
	if s.VertsPerFace < 3 {
		t.Errorf("verts per face = %v", s.VertsPerFace)
	}
}

// Stats.Add sums two blocks' counts and bytes and takes the ratios over
// the sums; the zero Stats is its identity.
func TestStatsAdd(t *testing.T) {
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3))
	a := new(MeshBuilder).Build(buildTestCells(t, 3, 3, 69), ext, 0).ComputeStats()
	b := new(MeshBuilder).Build(buildTestCells(t, 3, 3, 70), ext, 1).ComputeStats()
	if got := (Stats{}).Add(a); got != a {
		t.Errorf("zero + a = %+v, want %+v", got, a)
	}
	sum := a.Add(b)
	if sum.Cells != a.Cells+b.Cells || sum.UniqueVerts != a.UniqueVerts+b.UniqueVerts ||
		sum.TotalBytes != a.TotalBytes+b.TotalBytes {
		t.Errorf("sum %+v of %+v and %+v", sum, a, b)
	}
	if want := float64(a.Faces+b.Faces) / float64(a.Cells+b.Cells); sum.FacesPerCell != want {
		t.Errorf("faces per cell %v, want %v", sum.FacesPerCell, want)
	}
	if want := float64(a.TotalBytes+b.TotalBytes) / float64(a.Cells+b.Cells); sum.BytesPerParticle != want {
		t.Errorf("bytes per particle %v, want %v", sum.BytesPerParticle, want)
	}
}

func TestWeldingPreservesGeometry(t *testing.T) {
	// Face loops must reference vertices that match the source cell's
	// coordinates to weld tolerance.
	cells := buildTestCells(t, 3, 3, 69)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3))
	m := new(MeshBuilder).Build(cells, ext, 0)
	for ci, c := range cells {
		lo, _ := m.Faces(ci)
		for fi, f := range c.Faces {
			loop := m.Loop(lo + fi)
			if len(loop) != len(f.Loop) {
				t.Fatalf("cell %d face %d length mismatch", ci, fi)
			}
			for k, vi := range f.Loop {
				orig := c.Verts[vi]
				stored := m.Verts[loop[k]]
				if orig.Dist(stored) > 1e-5 {
					t.Fatalf("cell %d face %d vertex %d moved by %v", ci, fi, k, orig.Dist(stored))
				}
			}
		}
	}
}

// Welding a vertex once per cell must give the mesh that welding it at
// every face reference gives, under the rule that two vertices of one cell
// never weld: a reference whose key resolves to an index another vertex of
// the cell took gives its vertex an index of its own, outside the pool. The
// same vertex pool in the same order and the same indices, at the default
// tolerance and at one coarse enough that the rule fires, through a builder
// that has already built a different mesh.
func TestBuildWeldsLikePerReferenceProbe(t *testing.T) {
	cells := buildTestCells(t, 4, 4, 71)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4))
	var b MeshBuilder
	b.Build(cells[:7], ext, 0)
	for _, tol := range []float64{4e-7, 0.3} {
		m := b.Build(cells, ext, tol)
		pool := map[weldKey]int32{}
		var verts []geom.Vec3
		kept := 0
		for ci, c := range cells {
			taken := map[int32]int{} // index -> the cell vertex that took it
			own := map[int]int32{}   // cell vertex -> its index of its own
			lo, _ := m.Faces(ci)
			for fi, f := range c.Faces {
				for k, vi := range f.Loop {
					v := c.Verts[vi]
					key := weldKey{
						x: int64(roundHalf(v.X / tol)),
						y: int64(roundHalf(v.Y / tol)),
						z: int64(roundHalf(v.Z / tol)),
					}
					gi, ok := pool[key]
					if !ok {
						gi = int32(len(verts))
						verts = append(verts, v)
						pool[key] = gi
					}
					if prev, ok := taken[gi]; ok && prev != vi {
						if gi, ok = own[vi]; !ok {
							gi = int32(len(verts))
							verts = append(verts, v)
							own[vi] = gi
							kept++
						}
					}
					taken[gi] = vi
					if got := m.Loop(lo + fi)[k]; got != gi {
						t.Fatalf("tol %g cell %d face %d entry %d: index %d, want %d", tol, ci, fi, k, got, gi)
					}
				}
			}
		}
		if len(m.Verts) != len(verts) {
			t.Fatalf("tol %g: %d welded vertices, want %d", tol, len(m.Verts), len(verts))
		}
		for i := range verts {
			if m.Verts[i] != verts[i] {
				t.Fatalf("tol %g: vertex %d is %v, want %v", tol, i, m.Verts[i], verts[i])
			}
		}
		if tol > 0.1 && kept == 0 {
			t.Error("coarse tolerance kept no two vertices of one cell apart; the rule is not exercised")
		}
	}
}

// Stitching fragments of any split of the cells must give Build's mesh,
// at both tolerances above, with fragments begun far too small for their
// cells (so their rows grow) and through retained fragments, welders and
// builder; and at the coarse one, no cell may reference one index from two
// of its own vertices.
func TestStitchMatchesBuild(t *testing.T) {
	cells := buildTestCells(t, 4, 4, 72)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4))
	rng := rand.New(rand.NewSource(73))
	var b MeshBuilder
	var w [2]Welder
	frags := make([]Fragment, len(cells))
	for _, tol := range []float64{4e-7, 0.3} {
		want := new(MeshBuilder).Build(cells, ext, tol)
		for trial := 0; trial < 8; trial++ {
			n := 0
			for lo := 0; lo < len(cells); n++ {
				hi := min(len(cells), lo+1+rng.Intn(len(cells)/2))
				wd := &w[n%2]
				wd.Begin(&frags[n], ext, tol, 1)
				for _, c := range cells[lo:hi] {
					wd.Add(c, c.Volume(), c.Area())
				}
				lo = hi
			}
			m := b.Stitch(frags[:n], ext)
			if tol > 0.1 {
				requireNoSelfWelds(t, cells, m)
			}
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("tol %g trial %d: %d fragments stitch to another mesh than Build", tol, trial, n)
			}
		}
	}
}

// requireNoSelfWelds fails unless every mesh index a cell references comes
// from one of its own vertices only.
func requireNoSelfWelds(t *testing.T, cells []*voronoi.Cell, m *BlockMesh) {
	t.Helper()
	for ci, c := range cells {
		from := map[int32]int{}
		lo, _ := m.Faces(ci)
		for fi, f := range c.Faces {
			for k, vi := range f.Loop {
				gi := m.Loop(lo + fi)[k]
				if prev, ok := from[gi]; ok && prev != vi {
					t.Fatalf("cell %d: vertices %d and %d share index %d", ci, prev, vi, gi)
				}
				from[gi] = vi
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cells := buildTestCells(t, 4, 4, 70)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4))
	m := new(MeshBuilder).Build(cells, ext, 0)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeBlockMesh(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Extents != m.Extents {
		t.Error("extents mismatch")
	}
	if len(m2.Verts) != len(m.Verts) || m2.NumCells() != m.NumCells() {
		t.Fatalf("shape mismatch: %d/%d verts, %d/%d cells",
			len(m2.Verts), len(m.Verts), m2.NumCells(), m.NumCells())
	}
	// A vertex moves by at most one step of its axis's quantization grid.
	span := m.Extents.Max.Sub(m.Extents.Min)
	for i, v := range m.Verts {
		for a := 0; a < 3; a++ {
			if diff := math.Abs(v.Component(a) - m2.Verts[i].Component(a)); diff > span.Component(a)/(1<<30) {
				t.Fatalf("vertex %d axis %d moved by %g", i, a, diff)
			}
		}
	}
	for i := range m.Particles {
		if m.Particles[i] != m2.Particles[i] || m.ParticleIDs[i] != m2.ParticleIDs[i] || m.Volumes[i] != m2.Volumes[i] ||
			m.Areas[i] != m2.Areas[i] || m.Complete[i] != m2.Complete[i] {
			t.Fatalf("cell %d scalar mismatch", i)
		}
	}
	if !slices.Equal(m.FaceEnds, m2.FaceEnds) || !slices.Equal(m.Neighbors, m2.Neighbors) ||
		!slices.Equal(m.LoopEnds, m2.LoopEnds) || !slices.Equal(m.LoopVerts, m2.LoopVerts) {
		t.Fatal("connectivity rows differ")
	}
}

// v2 is the one layout read: a retired v1 stream is foreign bytes, turned
// away at its magic.
func TestDecodeRejectsV1(t *testing.T) {
	m := buildTestMesh(t, 3, 3, 73)
	_, err := DecodeBlockMesh(EncodeV1(m))
	if err == nil || !strings.Contains(err.Error(), "bad magic 0x744d455348763101") {
		t.Fatalf("v1 stream: err = %v, want a bad magic error", err)
	}
}

func TestEncodedSizeMatchesAccounting(t *testing.T) {
	cells := buildTestCells(t, 4, 4, 71)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4))
	m := new(MeshBuilder).Build(cells, ext, 0)
	data := EncodeV1(m)
	s := m.ComputeStats()
	// Accounting covers everything except the 8-byte magic.
	if int64(len(data)) != s.TotalBytes+8 {
		t.Errorf("encoded %d bytes, accounting %d + 8 magic", len(data), s.TotalBytes)
	}
	// The paper: connectivity dominates the output (~93% of bytes for a
	// full tessellation). Welded vertices keep geometry well under half.
	if s.ConnectivityBytes <= s.GeometryBytes {
		t.Errorf("connectivity (%d) should dominate geometry (%d)",
			s.ConnectivityBytes, s.GeometryBytes)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	cells := buildTestCells(t, 3, 3, 72)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3))
	m := new(MeshBuilder).Build(cells, ext, 0)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlockMesh(data[:10]); err == nil {
		t.Error("truncated block accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := DecodeBlockMesh(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeBlockMesh(append(data, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEncodeValidatesShape(t *testing.T) {
	m := &BlockMesh{Particles: make([]geom.Vec3, 2), ParticleIDs: make([]int64, 1)}
	if _, err := m.Encode(); err == nil {
		t.Error("inconsistent arrays accepted")
	}
}

func TestEmptyBlockRoundTrip(t *testing.T) {
	m := &BlockMesh{Extents: geom.NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeBlockMesh(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumCells() != 0 || len(m2.Verts) != 0 {
		t.Error("empty block decoded non-empty")
	}
}

func TestWriteVTK(t *testing.T) {
	cells := buildTestCells(t, 3, 3, 73)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3))
	m := new(MeshBuilder).Build(cells, ext, 0)
	var buf bytes.Buffer
	if err := WriteVTK(&buf, []*BlockMesh{m, m}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# vtk DataFile", "DATASET POLYDATA", "POINTS", "POLYGONS", "cell_volume"} {
		if !strings.Contains(out, want) {
			t.Errorf("VTK output missing %q", want)
		}
	}
	// Point count doubles with two meshes.
	i := strings.Index(out, "POINTS ")
	var np int
	var typ string
	if _, err := fmt.Sscanf(out[i:], "POINTS %d %s", &np, &typ); err != nil {
		t.Fatal(err)
	}
	if np != 2*len(m.Verts) {
		t.Errorf("POINTS %d, want %d", np, 2*len(m.Verts))
	}
}

// The weld table is a map from key to first-come index: across resets and
// growth (several rehashes per round), with keys that share low hash bits,
// it must answer exactly as a Go map does. Its slots are 8 bytes: a tag
// and an index, the key confirmed against the vertex pool.
func TestWeldTableMatchesMap(t *testing.T) {
	if size := unsafe.Sizeof(weldSlot{}); size != 8 {
		t.Fatalf("weldSlot is %d bytes, want 8", size)
	}
	rng := rand.New(rand.NewSource(72))
	var tab weldTable
	for round := 0; round < 4; round++ {
		tab.reset(0)
		w := newWeldRef(t, &tab)
		for i := 0; i < 5000*(round+1); i++ {
			// A small key range so lookups hit, large strides so keys that
			// differ only in the high bits share low hash bits.
			w.lookup(weldKey{x: rng.Int63n(40) << 20, y: rng.Int63n(40) - 20, z: rng.Int63n(4) << 40})
		}
		if tab.n != len(w.ref) || 2*tab.n > len(tab.slots) {
			t.Fatalf("round %d: %d entries in %d slots, map has %d", round, tab.n, len(tab.slots), len(w.ref))
		}
	}
}

// Two distinct keys with one 32-bit tag share a home slot and pass the tag
// test; the pooled vertex must tell them apart, before and after the table
// grows past them.
func TestWeldTableTagCollision(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	randKey := func() weldKey {
		return weldKey{x: rng.Int63n(1<<24) - 1<<23, y: rng.Int63n(1<<24) - 1<<23, z: rng.Int63n(1<<24) - 1<<23}
	}
	// A birthday search: about 82 000 keys for even odds of a shared tag.
	seen := map[uint32]weldKey{}
	var a, b weldKey
	for i := 0; ; i++ {
		if i == 1_000_000 {
			t.Fatal("no tag collision in 10^6 keys")
		}
		k := randKey()
		if o, ok := seen[k.tag()]; ok && o != k {
			a, b = o, k
			break
		}
		seen[k.tag()] = k
	}
	var tab weldTable
	tab.reset(0)
	w := newWeldRef(t, &tab)
	for _, k := range []weldKey{a, b, a, b} {
		w.lookup(k)
	}
	for range 3000 { // past 512 entries: the table grows
		w.lookup(randKey())
	}
	for _, k := range []weldKey{b, a} {
		w.lookup(k)
	}
	if len(tab.slots) == 1024 {
		t.Fatal("the table never grew")
	}
}

// weldRef drives a weldTable beside a Go map, keeping the vertex pool the
// table confirms its keys against: a key's vertex is its integer
// coordinates, which quantize back to it at tolerance 1.
type weldRef struct {
	t     *testing.T
	tab   *weldTable
	ref   map[weldKey]int32
	verts []geom.Vec3
}

func newWeldRef(t *testing.T, tab *weldTable) *weldRef {
	return &weldRef{t: t, tab: tab, ref: map[weldKey]int32{}}
}

func (w *weldRef) lookup(k weldKey) {
	w.t.Helper()
	want, ok := w.ref[k]
	if !ok {
		want = int32(len(w.ref))
		w.ref[k] = want
	}
	got, added := w.tab.lookupOrAdd(k, w.verts, 1)
	if got != want || added == ok {
		w.t.Fatalf("key %v: got (%d, %v), want (%d, %v)", k, got, added, want, !ok)
	}
	if added {
		w.verts = append(w.verts, geom.V(float64(k.x), float64(k.y), float64(k.z)))
	}
}

// BenchmarkWeld times one block's weld as a rank does it: Welder.Begin,
// then Add over the block's cells in site order, with volumes and areas
// computed beforehand. The block is rank 0 of the 4-block grid over step
// 11 of a 32^3 N-body run (the insitu-uniform shape, one worker per
// rank), its cells clipped against every particle and periodic image
// within a ghost of 4. cold welds with a new Welder and Fragment per op;
// warm reuses them, as a session's steps do.
func BenchmarkWeld(b *testing.B) {
	cells, vols, areas, extents := weldBlockCells(b)
	weld := func(w *Welder, f *Fragment) {
		w.Begin(f, extents, 0, len(cells))
		for i, c := range cells {
			w.Add(c, vols[i], areas[i])
		}
	}
	b.Run(fmt.Sprintf("cold-cells=%d", len(cells)), func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			weld(new(Welder), new(Fragment))
		}
	})
	b.Run(fmt.Sprintf("warm-cells=%d", len(cells)), func(b *testing.B) {
		var w Welder
		var f Fragment
		weld(&w, &f)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			weld(&w, &f)
		}
	})
}

// weldBlockCells computes BenchmarkWeld's block: its cells in site order,
// every one complete, their volumes and areas, and its extents.
func weldBlockCells(tb testing.TB) (cells []*voronoi.Cell, vols, areas []float64, extents geom.Box) {
	tb.Helper()
	const ng, ghost = 32, 4.0
	cfg := nbody.DefaultConfig(ng)
	sim, err := nbody.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sim.Run(11, nil)
	L := cfg.BoxSize
	d, err := diy.Decompose(geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)), 4, true)
	if err != nil {
		tb.Fatal(err)
	}
	extents = d.Block(0).Bounds
	var pts []geom.Vec3
	var ids []int64
	margin := extents.Expand(ghost)
	for i, p := range sim.Pos {
		for sx := -1.0; sx <= 1; sx++ {
			for sy := -1.0; sy <= 1; sy++ {
				for sz := -1.0; sz <= 1; sz++ {
					if img := p.Add(geom.V(sx*L, sy*L, sz*L)); margin.Contains(img) {
						pts, ids = append(pts, img), append(ids, int64(i))
					}
				}
			}
		}
	}
	ix := voronoi.NewIndex(pts, ids, 0)
	s, pool := voronoi.NewScratch(), new(voronoi.CellPool)
	for i, p := range sim.Pos {
		if d.Locate(p) != 0 {
			continue
		}
		c, err := voronoi.ComputeCellPooled(ix, p, int64(i), margin, s, pool)
		if err != nil {
			tb.Fatal(err)
		}
		if !c.Complete {
			tb.Fatalf("cell %d is incomplete", i)
		}
		cells, vols, areas = append(cells, c), append(vols, c.Volume()), append(areas, c.Area())
	}
	return cells, vols, areas, extents
}
