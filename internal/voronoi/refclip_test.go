package voronoi

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
)

// refScratch is the clipping state the one-compaction sweep replaced, kept
// as the oracle: ping-pong face banks, a vertex accumulation buffer, a
// linear crossing registry, a compaction after every cut, and the cut
// face ordered by math.Atan2 (orderLoop below). It borrows a sweep only
// for addCut's duplicate-free cut list.
type refScratch struct {
	dist     []float64
	tmpVerts []geom.Vec3
	outVerts []geom.Vec3
	faces    [2][]Face
	arena    [2][]int
	bank     int
	metas    []faceRec
	crossE   [][2]int
	crossV   []int
	remap    []int32
	angles   []float64
	sw       sweep
}

// orderLoop is the sweep's ordering of a cut face before its angle keys:
// idx sorted in place by math.Atan2(d·e2, d·e1) around the centroid, into
// a loop whose Newell normal points along +normal.
func (s *refScratch) orderLoop(verts []geom.Vec3, idx []int, normal geom.Vec3) {
	n := normal.Normalize()
	// Build an orthonormal basis (e1, e2, n).
	var ref geom.Vec3
	if math.Abs(n.X) < 0.9 {
		ref = geom.Vec3{X: 1}
	} else {
		ref = geom.Vec3{Y: 1}
	}
	e1 := n.Cross(ref).Normalize()
	e2 := n.Cross(e1) // e1 x e2 == n, so angle order is CCW viewed from +n

	var c geom.Vec3
	for _, vi := range idx {
		c = c.Add(verts[vi])
	}
	c = c.Scale(1 / float64(len(idx)))

	if cap(s.angles) < len(idx) {
		s.angles = make([]float64, len(idx), 2*len(idx))
	} else {
		s.angles = s.angles[:len(idx)]
	}
	for i, vi := range idx {
		d := verts[vi].Sub(c)
		s.angles[i] = math.Atan2(d.Dot(e2), d.Dot(e1))
	}
	// Insertion sort of (angle, index) pairs: stable, so equal angles keep
	// their order of discovery.
	for i := 1; i < len(idx); i++ {
		a, v := s.angles[i], idx[i]
		j := i - 1
		for j >= 0 && s.angles[j] > a {
			s.angles[j+1], idx[j+1] = s.angles[j], idx[j]
			j--
		}
		s.angles[j+1], idx[j+1] = a, v
	}
	// Fix orientation: the Newell normal must point along +n.
	var nn geom.Vec3
	for i := range idx {
		p, q := verts[idx[i]], verts[idx[(i+1)%len(idx)]]
		nn.X += (p.Y - q.Y) * (p.Z + q.Z)
		nn.Y += (p.Z - q.Z) * (p.X + q.X)
		nn.Z += (p.X - q.X) * (p.Y + q.Y)
	}
	if nn.Dot(n) < 0 {
		for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
			idx[i], idx[j] = idx[j], idx[i]
		}
	}
}

// referenceBox is the reference kernel's initial box cell: the cell aliases rs.
func referenceBox(site geom.Vec3, id int64, box geom.Box, rs *refScratch) *Cell {
	c := &Cell{Site: site, SiteID: id}
	c.eps = 1e-9 * math.Max(box.Size().MaxAbs(), 1e-30)
	corners := box.Corners()
	rs.outVerts = append(rs.outVerts[:0], corners[:]...)
	c.Verts = rs.outVerts
	rs.bank = 0
	arena := append(rs.arena[0][:0],
		0, 4, 7, 3,
		1, 2, 6, 5,
		0, 1, 5, 4,
		2, 3, 7, 6,
		0, 3, 2, 1,
		4, 5, 6, 7)
	rs.arena[0] = arena
	faces := rs.faces[0][:0]
	for i, wall := range [...]int64{WallXMin, WallXMax, WallYMin, WallYMax, WallZMin, WallZMax} {
		faces = append(faces, Face{Neighbor: wall, Loop: arena[4*i : 4*i+4 : 4*i+4]})
	}
	rs.faces[0] = faces
	c.Faces = faces
	return c
}

// referenceClip is the parent kernel's Cell.clip followed by its
// compactScratch, verbatim but for the receiver of its buffers.
func referenceClip(c *Cell, pl geom.Plane, neighborID int64, s *refScratch) bool {
	nv := len(c.Verts)
	if nv == 0 {
		return false
	}
	if cap(s.dist) < nv {
		s.dist = make([]float64, nv, 2*nv)
	} else {
		s.dist = s.dist[:nv]
	}
	d := s.dist
	anyOut, anyIn := false, false
	for i, v := range c.Verts {
		d[i] = pl.Eval(v)
		if d[i] > c.eps {
			anyOut = true
		} else if d[i] < -c.eps {
			anyIn = true
		}
	}
	if !anyOut {
		return false
	}
	if !anyIn {
		c.Verts = nil
		c.Faces = nil
		return true
	}

	s.tmpVerts = append(s.tmpVerts[:0], c.Verts...)
	s.crossE = s.crossE[:0]
	s.crossV = s.crossV[:0]
	cross := func(i, j int) int {
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		for k, e := range s.crossE {
			if e[0] == a && e[1] == b {
				return s.crossV[k]
			}
		}
		t := d[i] / (d[i] - d[j])
		p := c.Verts[i].Lerp(c.Verts[j], t)
		s.tmpVerts = append(s.tmpVerts, p)
		vi := len(s.tmpVerts) - 1
		s.crossE = append(s.crossE, [2]int{a, b})
		s.crossV = append(s.crossV, vi)
		return vi
	}

	dst := 1 - s.bank
	arena := s.arena[dst][:0]
	s.metas = s.metas[:0]
	s.sw.cut = s.sw.cut[:0]
	for _, f := range c.Faces {
		start := len(arena)
		n := len(f.Loop)
		for i := 0; i < n; i++ {
			cur, nxt := f.Loop[i], f.Loop[(i+1)%n]
			if d[cur] <= c.eps {
				arena = append(arena, cur)
				if d[cur] >= -c.eps {
					s.sw.addCut(cur)
				}
			}
			if (d[cur] < -c.eps && d[nxt] > c.eps) || (d[cur] > c.eps && d[nxt] < -c.eps) {
				vi := cross(cur, nxt)
				arena = append(arena, vi)
				s.sw.addCut(vi)
			}
		}
		loop := dedupeLoop(arena[start:])
		arena = arena[:start+len(loop)]
		if len(loop) >= 3 {
			s.metas = append(s.metas, faceRec{neighbor: f.Neighbor, start: start, end: start + len(loop)})
		} else {
			arena = arena[:start]
		}
	}
	if len(s.sw.cut) >= 3 {
		s.orderLoop(s.tmpVerts, s.sw.cut, pl.N)
		start := len(arena)
		arena = append(arena, s.sw.cut...)
		s.metas = append(s.metas, faceRec{neighbor: neighborID, start: start, end: len(arena)})
	}
	s.arena[dst] = arena

	faces := s.faces[dst][:0]
	for _, m := range s.metas {
		faces = append(faces, Face{Neighbor: m.neighbor, Loop: arena[m.start:m.end:m.end]})
	}
	s.faces[dst] = faces
	c.Faces = faces
	s.bank = dst

	// compactScratch: drop unreferenced vertices, renumber by first
	// appearance over the faces in order.
	n := len(s.tmpVerts)
	if cap(s.remap) < n {
		s.remap = make([]int32, n, 2*n)
	} else {
		s.remap = s.remap[:n]
	}
	for i := range s.remap {
		s.remap[i] = -1
	}
	out := s.outVerts[:0]
	for fi := range c.Faces {
		loop := c.Faces[fi].Loop
		for li, vi := range loop {
			ni := s.remap[vi]
			if ni < 0 {
				ni = int32(len(out))
				out = append(out, s.tmpVerts[vi])
				s.remap[vi] = ni
			}
			loop[li] = int(ni)
		}
	}
	s.outVerts = out
	c.Verts = out
	return true
}

// dedupeLoop removes consecutive duplicate indices (including wraparound).
// The sweep dropped this pass, which a rebuilt loop never needs; the
// reference keeps it, so the fuzz target checks the deletion.
func dedupeLoop(loop []int) []int {
	if len(loop) < 2 {
		return loop
	}
	out := loop[:0]
	for i, v := range loop {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	for len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	return out
}

// sweepPair drives the sweep and the reference kernel with the same planes
// and compares them after every one of them.
type sweepPair struct {
	t    testing.TB
	w    sweep
	cell Cell // the sweep's cell, re-finished after every plane
	rs   refScratch
	ref  *Cell
}

func newSweepPair(t testing.TB, site geom.Vec3, box geom.Box) *sweepPair {
	p := &sweepPair{t: t}
	if err := p.w.begin(&p.cell, site, 1, box); err != nil {
		t.Fatal(err)
	}
	p.ref = referenceBox(site, 1, box, &p.rs)
	p.compare("initial box")
	return p
}

func (p *sweepPair) clip(pl geom.Plane, id int64) {
	got, want := p.w.clip(pl, id), referenceClip(p.ref, pl, id, &p.rs)
	if got != want {
		p.t.Fatalf("plane %+v: sweep reports cut=%v, reference %v", pl, got, want)
	}
	p.compare("plane")
}

// compare requires the finished sweep cell to equal the reference cell bit
// for bit, the two maxR to be the same number, and the incremental live
// set to be what a rescan finds.
func (p *sweepPair) compare(what string) {
	p.w.finishOwned(&p.cell)
	if d := cellDiff(&p.cell, p.ref); d != "" {
		p.t.Fatalf("after %s (%d cuts): %s", what, p.w.cuts, d)
	}
	if got, want := p.w.maxR(), p.ref.MaxVertexDist(); got != want {
		p.t.Fatalf("after %s (%d cuts): maxR %v, reference MaxVertexDist %v", what, p.w.cuts, got, want)
	}
	if p.w.empty() != (len(p.ref.Verts) == 0) {
		p.t.Fatalf("after %s: empty %v, reference %v", what, p.w.empty(), len(p.ref.Verts) == 0)
	}
	checkLiveSet(p.t, &p.w)
}

// checkLiveSet compares the incremental live set and maxR2 with a rescan
// of the face loops, leaving the sweep as it found it.
func checkLiveSet(t testing.TB, w *sweep) {
	t.Helper()
	live, maxR2 := append([]int(nil), w.live...), w.maxR2
	w.rescanLive()
	if w.maxR2 != maxR2 {
		t.Fatalf("incremental maxR2 %v, rescan %v", maxR2, w.maxR2)
	}
	if len(live) != len(w.live) {
		t.Fatalf("incremental live set has %d vertices, rescan %d", len(live), len(w.live))
	}
	in := map[int]bool{}
	for _, vi := range w.live {
		in[vi] = true
	}
	for _, vi := range live {
		if !in[vi] {
			t.Fatalf("vertex %d is live incrementally but referenced by no face", vi)
		}
		delete(in, vi) // a duplicate entry fails the next lookup
	}
	w.live, w.maxR2 = live, maxR2
}

// A cell no plane ever cut keeps geom.Box.Corners order, which the
// first-appearance numbering of a cut cell would not reproduce (the first
// wall's loop is 0 4 7 3).
func TestNeverCutCellKeepsCornerOrder(t *testing.T) {
	box := geom.NewBox(geom.V(0, 0, 0), geom.V(2, 3, 4))
	site := geom.V(1, 1, 1)
	far := geom.V(40, 1, 1) // its bisector misses the box

	check := func(name string, c *Cell) {
		t.Helper()
		if len(c.Verts) != 8 {
			t.Fatalf("%s: %d verts", name, len(c.Verts))
		}
		for i, v := range box.Corners() {
			if c.Verts[i] != v {
				t.Errorf("%s: vertex %d is %v, want corner %v", name, i, c.Verts[i], v)
			}
		}
		if l := c.Faces[0].Loop; l[0] != 0 || l[1] != 4 || l[2] != 7 || l[3] != 3 {
			t.Errorf("%s: first wall loop %v, want [0 4 7 3]", name, l)
		}
	}

	c, err := newHandCell(site, 0, box)
	if err != nil {
		t.Fatal(err)
	}
	check("begin and finish", c.Cell)
	if c.clip(geom.Bisector(site, far), 9) {
		t.Fatal("a far plane cut the box")
	}
	check("after a missing clip", c.Cell)

	ix := NewIndex([]geom.Vec3{site, far}, []int64{0, 9}, 0)
	for name, compute := range map[string]func() (*Cell, error){
		"ComputeCellScratch": func() (*Cell, error) { return ComputeCellScratch(ix, site, 0, box, NewScratch()) },
		"ComputeCellPooled":  func() (*Cell, error) { return ComputeCellPooled(ix, site, 0, box, NewScratch(), new(CellPool)) },
		"ComputeCellReused":  func() (*Cell, error) { return ComputeCellReused(ix, site, 0, box, 0, NewScratch()) },
		"ComputeCellBrute":   func() (*Cell, error) { return ComputeCellBrute([]geom.Vec3{site, far}, []int64{0, 9}, site, 0, box) },
	} {
		c, err := compute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, c)
		if c.Complete {
			t.Errorf("%s: a cell of six walls is Complete", name)
		}
	}

	// One cut and the numbering is first appearance over the faces.
	if !c.clip(geom.Bisector(site, geom.V(1, 1, 3.5)), 5) {
		t.Fatal("the near plane did not cut")
	}
	if l := c.Faces[0].Loop; l[0] != 0 || l[1] != 1 || l[2] != 2 || l[3] != 3 {
		t.Errorf("after a cut the first wall loop is %v, want [0 1 2 3]", l)
	}
}

// load resets the sweep to an already finished cell, so that one more
// plane can be cut from it.
func (w *sweep) load(c *Cell) {
	w.reset(c.Site, c.eps)
	for _, v := range c.Verts {
		w.addVertex(v)
	}
	for _, f := range c.Faces {
		start := len(w.loops)
		w.loops = append(w.loops, f.Loop...)
		w.faces = append(w.faces, faceRec{neighbor: f.Neighbor, start: start, end: len(w.loops)})
	}
	w.allLive()
}

// The case the incremental live update cannot see: a dropped face was the
// only one referencing a vertex it had kept. A closed convex cell does not
// produce it (every vertex sits on three faces), so the input is an open
// surface loaded by hand — a triangle touching the plane at one corner and
// a quad strictly inside — and the reference kernel says what is left.
func TestRescanAfterDroppedFace(t *testing.T) {
	c := &Cell{
		Site: geom.V(0, 0, -1),
		Verts: []geom.Vec3{
			geom.V(0, 0, 0), geom.V(1, 0, 2), geom.V(0, 1, 3), // corner on z = 0, the rest far above
			geom.V(0, 0, -1), geom.V(1, 0, -1), geom.V(1, 1, -1), geom.V(0, 1, -1),
		},
		Faces: []Face{
			{Neighbor: 1, Loop: []int{0, 1, 2}},
			{Neighbor: 2, Loop: []int{3, 4, 5, 6}},
		},
		eps: 1e-9,
	}
	ref := &Cell{Site: c.Site, Verts: append([]geom.Vec3(nil), c.Verts...), eps: c.eps,
		Faces: []Face{{Neighbor: 1, Loop: []int{0, 1, 2}}, {Neighbor: 2, Loop: []int{3, 4, 5, 6}}}}
	pl := planeThrough(geom.V(0, 0, 1), geom.V(0, 0, 0))

	var w sweep
	w.load(c)
	if !w.clip(pl, 7) || !referenceClip(ref, pl, 7, new(refScratch)) {
		t.Fatal("the plane did not cut")
	}
	w.finishOwned(c)
	if d := cellDiff(c, ref); d != "" {
		t.Fatal(d)
	}
	if len(c.Verts) != 4 || len(w.live) != 4 {
		t.Errorf("%d vertices finished, %d live: the orphaned corner should be gone", len(c.Verts), len(w.live))
	}
	if got, want := w.maxR(), ref.MaxVertexDist(); got != want {
		t.Errorf("maxR %v, reference %v: the orphaned corner still counts", got, want)
	}
}

// After every cut of 2 000 cells (uniform, clustered and exact-lattice
// sites, so dropped faces and on-plane vertices are among them) the live
// set and maxR2 the sweep maintains incrementally equal a full rescan's.
func TestIncrementalLiveSetEqualsRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	cp := cosmo.DefaultClusterParams()
	cp.Seed = 3
	cells, cuts, dropping := 0, 0, 0
	for _, in := range []struct {
		pts   []geom.Vec3
		sites int
	}{
		{uniformPts(rng, 700, 9), 700},
		{cosmo.ClusteredPositions(700, 9, cp), 700},
		{latticePts(9, 9), 600},
	} {
		ix := NewIndex(in.pts, seqIDs(len(in.pts)), 0)
		initBox := geom.BoundingBox(in.pts).Expand(1)
		for _, site := range in.pts[:in.sites] {
			var w sweep
			var c Cell
			if err := w.begin(&c, site, 0, initBox); err != nil {
				t.Fatal(err)
			}
			cells++
			// Nearest first over the whole index: more planes than the
			// security radius would test, which is the point.
			for sh := 0; sh <= min(3, ix.MaxShell(site)); sh++ {
				for _, sp := range ix.Shell(site, sh) {
					if sp.Dist <= 1e-12 {
						continue
					}
					before := len(w.faces)
					if !w.clip(geom.Bisector(site, sp.Pos), sp.ID) {
						continue
					}
					cuts++
					if len(w.faces) < before {
						dropping++ // lost two faces or more for the one it gained
					}
					checkLiveSet(t, &w)
					if got, want := w.maxR(), func() float64 {
						w.finishOwned(&c)
						return c.MaxVertexDist()
					}(); got != want {
						t.Fatalf("maxR %v, finished cell's MaxVertexDist %v", got, want)
					}
				}
			}
		}
	}
	if cells != 2000 || dropping == 0 {
		t.Fatalf("%d cells, %d cuts, %d of them dropping faces: the test lost its inputs", cells, cuts, dropping)
	}
	t.Logf("%d cells, %d cuts, %d dropping faces", cells, cuts, dropping)
}

// maxSq gives the builtin max's bits on the values the live set holds —
// +0, positive numbers, +Inf and NaN, in either argument — so the
// incremental maxR² and the rescan's stay the number they were.
func TestMaxSqIsMax(t *testing.T) {
	vals := []float64{0, 5e-324, 1, 2, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, m := range vals {
		for _, r := range vals {
			if got, want := maxSq(m, r), max(m, r); math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
				t.Errorf("maxSq(%v, %v) = %v, max gives %v", m, r, got, want)
			}
		}
	}
}

// fuzzPlanes decodes a plane sequence from fuzz bytes: each 13-byte record
// is a kind and three 32-bit parameters, and the kinds are the cases the
// two kernels could disagree on — a random bisector, an axis-aligned plane,
// a plane through vertices the cell has now, and the previous plane again.
func fuzzPlanes(data []byte, p *sweepPair, site geom.Vec3, box geom.Box) {
	unit := func(b []byte) float64 { return float64(binary.LittleEndian.Uint32(b)) / (1 << 32) }
	size := box.Size()
	var last geom.Plane
	for id := int64(2); len(data) >= 13 && id < 66; id++ {
		kind, a, b, c := data[0], unit(data[1:5]), unit(data[5:9]), unit(data[9:13])
		data = data[13:]
		var pl geom.Plane
		switch verts := p.cell.Verts; {
		case kind%4 == 1:
			// Axis-aligned, at a coordinate inside the box (often through a
			// box corner's coordinate when a is 0).
			n := geom.Vec3{}
			pos := box.Min
			switch kind / 4 % 3 {
			case 0:
				n.X, pos.X = 1, box.Min.X+a*size.X
			case 1:
				n.Y, pos.Y = 1, box.Min.Y+a*size.Y
			default:
				n.Z, pos.Z = 1, box.Min.Z+a*size.Z
			}
			if kind&64 != 0 {
				n = n.Scale(-1)
			}
			pl = planeThrough(n, pos)
		case kind%4 == 2 && len(verts) >= 3:
			// Through three existing vertices: every one of them is on the
			// plane, and so is any other vertex of a face they share.
			i, j, k := int(a*float64(len(verts))), int(b*float64(len(verts))), int(c*float64(len(verts)))
			pl = geom.PlaneFromPoints(verts[i], verts[j], verts[k])
			if pl.Degenerate() {
				continue
			}
			if pl.Eval(site) > 0 {
				pl = pl.Flip()
			}
		case kind%4 == 3 && id > 2:
			pl = last
		default:
			q := geom.V(box.Min.X+a*size.X, box.Min.Y+b*size.Y, box.Min.Z+c*size.Z)
			if q == site {
				continue
			}
			pl = geom.Bisector(site, q)
		}
		last = pl
		p.clip(pl, id)
		if p.w.empty() {
			return
		}
	}
}

// planeRecord is one record of fuzzPlanes: a kind and three parameters in
// [0, 1).
func planeRecord(kind byte, a, b, c float64) []byte {
	rec := []byte{kind}
	for _, x := range [...]float64{a, b, c} {
		rec = binary.LittleEndian.AppendUint32(rec, uint32(x*(1<<32)))
	}
	return rec
}

// FuzzSweepMatchesReferenceClip drives the one-compaction sweep and the
// per-cut-compaction reference with the same site, box and plane sequence
// and requires bit-equal cells and the same maxR after every plane.
func FuzzSweepMatchesReferenceClip(f *testing.F) {
	rng := rand.New(rand.NewSource(1703))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 12+13*(4+8*i))
		rng.Read(seed)
		f.Add(seed)
	}
	// All four kinds in a row, an axis plane through the box corner, and a
	// plane repeated immediately.
	f.Add([]byte{
		10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120,
		0, 0, 0, 0, 128, 0, 0, 0, 128, 0, 0, 0, 200,
		3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 192,
		69, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 0,
		2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
	})
	// Cuts through exact lattice vertices: axis planes at x = 1, y = 0 and
	// z = -1 (and, around the second site, at x = -0.5, y = -1.5 and
	// z = -2.5) leave a box with exact corners, and planes through three
	// of its vertices then cut it with several vertices on the plane, the
	// ties the angle keys must order as Atan2 does.
	for _, c := range []struct {
		site  float64
		walls []byte
	}{
		{0, nil},
		{0.4, []byte{1 | 64, 5 | 64, 9 | 64}},
	} {
		seed := make([]byte, 0, 12+13*11)
		for range 3 {
			seed = binary.LittleEndian.AppendUint32(seed, uint32(c.site*(1<<32)))
		}
		for _, kind := range append([]byte{1, 5, 9}, c.walls...) {
			pos := 0.5
			if kind&64 != 0 {
				pos = 0.125
			}
			seed = append(seed, planeRecord(kind, pos, 0, 0)...)
		}
		for _, abc := range [][3]float64{{0, 0.26, 0.76}, {0.76, 0, 0.26}, {0.13, 0.51, 0.89}, {0.39, 0.64, 0}, {0.89, 0.26, 0.51}} {
			seed = append(seed, planeRecord(2, abc[0], abc[1], abc[2])...)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		unit := func(b []byte) float64 { return float64(binary.LittleEndian.Uint32(b)) / (1 << 32) }
		box := geom.NewBox(geom.V(-1, -2, -3), geom.V(3, 2, 1))
		size := box.Size()
		site := geom.V(
			box.Min.X+(0.05+0.9*unit(data[0:4]))*size.X,
			box.Min.Y+(0.05+0.9*unit(data[4:8]))*size.Y,
			box.Min.Z+(0.05+0.9*unit(data[8:12]))*size.Z)
		fuzzPlanes(data[12:], newSweepPair(t, site, box), site, box)
	})
}
