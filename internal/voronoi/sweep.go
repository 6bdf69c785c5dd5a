package voronoi

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// sweep is the clipping state of the one cell a Scratch is building. A cell
// is cut by ~15 planes and each cut touches a few of its faces, so nothing
// here is rewritten per cut: vertices and face loops are appended for the
// life of the cell, a cut rebuilds only the faces it touches onto the tail
// of the loop arena, and the cell is compacted once, by finish, into the
// storage it is handed out in. A vertex index is therefore stable from the
// vertex's creation until finish renumbers it.
//
// Nothing handed out may alias these buffers: the next cell through the
// same Scratch overwrites them in place, and finish copies out of them.
// TestComputeCellPooledDetaches and the byte-identity suites above it hold
// that (DESIGN.md "Static invariants").
type sweep struct {
	site geom.Vec3
	eps  float64

	// Every vertex the cell has had, in creation order, with its squared
	// distance to the site cached; dist holds the current plane's signed
	// distance, valid for the vertices that were live when it was cut.
	verts []geom.Vec3
	r2    []float64
	dist  []float64

	// The faces in cell order as ranges of the loop arena. A face the
	// current plane leaves strictly inside keeps its range; a touched face
	// gets a new range on the arena's tail.
	loops []int
	faces []faceRec

	// live lists the vertices some face references (in no particular
	// order) and maxR2 is the largest r2 among them: what the next plane is
	// evaluated on, and the security radius.
	live  []int
	maxR2 float64

	// cuts counts the planes that changed the cell; a cell that was never
	// cut keeps the vertex order it started with.
	cuts int

	// The box reject. After two planes in a row missed the cell, the
	// bounding box of the live vertices (centre bc, half-extents bh) is
	// built, and every later plane is tested against it before any vertex
	// is evaluated; the next cut drops it. boxed counts the planes it
	// rejected, for KernelCounts.Boxed.
	misses int
	hasBox bool
	bc, bh geom.Vec3
	boxed  int64

	// Crossing registry of the current cut: the intersection vertex of
	// each strictly crossing edge, shared by the two faces adjoining the
	// edge, filed under the edge's inside vertex. xhead[v] is the first
	// record of v's crossings in xrec, chained through next; -1 (the value
	// outside a cut) for none. An inside vertex has one or two crossing
	// edges, so a lookup reads a record or two where a scan of the whole
	// registry read all of them.
	xhead []int32
	xrec  []crossRec

	// Vertices on the cut plane, in discovery order, plus the angular sort
	// keys used to order them into the new face's loop.
	cut  []int
	keys []angleKey

	// looped counts the vertices ordered into cut faces, for
	// KernelCounts.Looped.
	looped int64

	// old -> new vertex index for finish, -1 for unreferenced; the live
	// rescan borrows it as a seen-marker.
	remap []int32
}

type faceRec struct {
	neighbor   int64
	start, end int
}

// crossRec is one crossing of the registry: the edge's inside vertex and
// outside vertex, the intersection vertex, and the next record filed under
// the same inside vertex (-1 for none).
type crossRec struct {
	in, out, v, next int32
}

// begin resets the sweep to the axis-aligned box around site and
// initializes c as the cell under construction. The box must strictly
// contain the site.
func (w *sweep) begin(c *Cell, site geom.Vec3, id int64, box geom.Box) error {
	if !box.ContainsOpen(site) {
		return fmt.Errorf("voronoi: site %v not strictly inside initial box %+v", site, box)
	}
	*c = Cell{Site: site, SiteID: id, eps: 1e-9 * math.Max(box.Size().MaxAbs(), 1e-30)}
	w.reset(site, c.eps)
	for _, v := range box.Corners() {
		w.addVertex(v)
	}
	// Corner order (from geom.Box.Corners):
	// 0:(-,-,-) 1:(+,-,-) 2:(+,+,-) 3:(-,+,-) 4:(-,-,+) 5:(+,-,+) 6:(+,+,+) 7:(-,+,+)
	w.loops = append(w.loops,
		0, 4, 7, 3,
		1, 2, 6, 5,
		0, 1, 5, 4,
		2, 3, 7, 6,
		0, 3, 2, 1,
		4, 5, 6, 7)
	for i, wall := range [...]int64{WallXMin, WallXMax, WallYMin, WallYMax, WallZMin, WallZMax} {
		w.faces = append(w.faces, faceRec{neighbor: wall, start: 4 * i, end: 4*i + 4})
	}
	w.allLive()
	return nil
}

func (w *sweep) reset(site geom.Vec3, eps float64) {
	w.site, w.eps = site, eps
	w.verts, w.r2 = w.verts[:0], w.r2[:0]
	w.loops, w.faces = w.loops[:0], w.faces[:0]
	w.cuts, w.misses, w.hasBox = 0, 0, false
}

func (w *sweep) addVertex(v geom.Vec3) int {
	w.verts = append(w.verts, v)
	w.r2 = append(w.r2, v.Dist2(w.site))
	return len(w.verts) - 1
}

// allLive marks every vertex live, which is what a cell that has not been
// cut through this sweep starts as.
func (w *sweep) allLive() {
	w.live = w.live[:0]
	w.maxR2 = 0
	for vi, r := range w.r2 {
		w.live = append(w.live, vi)
		w.maxR2 = maxSq(w.maxR2, r)
	}
}

// empty reports whether the cell has been clipped away entirely.
func (w *sweep) empty() bool { return len(w.live) == 0 }

// maxR is the distance from the site to the farthest cell vertex (0 for an
// empty cell).
func (w *sweep) maxR() float64 { return math.Sqrt(w.maxR2) }

// closed reports whether the security radius, widened by the relative
// slack, lies within reach: once every indexed point within reach of the
// site has been offered to the cell, no farther one can cut it.
func (w *sweep) closed(reach, slack float64) bool {
	return reach >= 2*w.maxR()*(1+slack)
}

// complete is the one completeness predicate, which Cell.Complete and the
// cull exit both decide through: the security radius closed within reach
// and no face of the cell is a wall of the initial box.
func (w *sweep) complete(reach, slack float64) bool {
	return w.closed(reach, slack) && !w.hasWall()
}

func (w *sweep) hasWall() bool {
	for _, f := range w.faces {
		if f.neighbor < 0 {
			return true
		}
	}
	return false
}

// volume is Cell.Volume of the cell as it stands: the same fan from the
// site over the same loops, so the finished cell gives the same bits.
func (w *sweep) volume() float64 {
	var vol float64
	for _, f := range w.faces {
		vol = addFan(vol, w.site, w.verts, w.loops[f.start:f.end])
	}
	return math.Abs(vol) / 6
}

// buildBox sets bc and bh to the bounding box of the live vertices, which
// must not be empty.
func (w *sweep) buildBox() {
	lo := w.verts[w.live[0]]
	hi := lo
	for _, vi := range w.live[1:] {
		v := w.verts[vi]
		lo.X, hi.X = min(lo.X, v.X), max(hi.X, v.X)
		lo.Y, hi.Y = min(lo.Y, v.Y), max(hi.Y, v.Y)
		lo.Z, hi.Z = min(lo.Z, v.Z), max(hi.Z, v.Z)
	}
	w.bc, w.bh, w.hasBox = lo.Mid(hi), hi.Sub(lo).Scale(0.5), true
}

// boxMiss reports whether no live vertex can evaluate above eps on pl: the
// plane's value at the box corner farthest along its normal, plus a margin,
// is at most eps. The margin is 1e-12 of the magnitudes that value is
// summed from, thousands of times the rounding of the bound and of any
// vertex's evaluation (with or without fused multiply-adds), and of the
// box's own centre and half-extents.
func (w *sweep) boxMiss(pl geom.Plane) bool {
	n, c, h := pl.N, w.bc, w.bh
	ax, ay, az := math.Abs(n.X), math.Abs(n.Y), math.Abs(n.Z)
	top := n.Dot(c) + pl.D + ax*h.X + ay*h.Y + az*h.Z
	mag := ax*(math.Abs(c.X)+h.X) + ay*(math.Abs(c.Y)+h.Y) + az*(math.Abs(c.Z)+h.Z) + math.Abs(pl.D)
	return top+1e-12*mag <= w.eps
}

// clip cuts away the positive half-space of pl, recording neighborID on the
// new face, and reports whether the plane changed the cell. A plane whose
// positive side contains the whole cell empties it.
//
// A plane the live vertices' box proves to miss (boxMiss) is rejected
// before any vertex is evaluated. Otherwise only the live vertices are
// evaluated; a face whose vertices are all strictly inside keeps its arena
// range, and a touched face is walked onto the arena's tail: vertices with
// d <= eps survive, a strict crossing inserts the edge's intersection
// vertex (computed once, in the direction the first of the two adjoining
// faces meets it), and everything on the plane is collected, in discovery
// order, into the new face. The rebuilt loop holds no repeats: a kept
// vertex is a distinct old index, a crossing vertex is new and there is
// one per edge, and the cut face takes a crossing vertex once, when it is
// made, and an on-plane vertex once, through addCut.
func (w *sweep) clip(pl geom.Plane, neighborID int64) bool {
	if len(w.live) == 0 {
		return false
	}
	if w.hasBox && w.boxMiss(pl) {
		w.boxed++
		return false
	}
	if cap(w.dist) < len(w.verts) {
		w.dist = make([]float64, 2*len(w.verts))
	}
	d, eps := w.dist[:len(w.verts)], w.eps
	anyOut, anyIn := false, false
	for _, vi := range w.live {
		x := pl.Eval(w.verts[vi])
		d[vi] = x
		if x > eps {
			anyOut = true
		} else if x < -eps {
			anyIn = true
		}
	}
	if !anyOut {
		if w.misses++; w.misses == 2 {
			w.buildBox()
		}
		return false
	}
	w.cuts++
	w.misses, w.hasBox = 0, false
	if !anyIn {
		w.faces, w.live, w.maxR2 = w.faces[:0], w.live[:0], 0
		return true
	}

	firstNew := len(w.verts)
	// A dropped face that had kept a vertex may have been the last one
	// referencing it, and the incremental live update cannot see that.
	rescan := w.cutFaces(d)

	// Assemble the new face on the cut plane by angular ordering around the
	// projected centroid (valid because the cell is convex, so the cut
	// cross-section is a convex polygon).
	if len(w.cut) >= 3 {
		w.looped += int64(len(w.cut))
		w.orderLoop(w.verts, w.cut, pl.N)
		start := len(w.loops)
		w.loops = append(w.loops, w.cut...)
		w.faces = append(w.faces, faceRec{neighbor: neighborID, start: start, end: len(w.loops)})
	} else {
		rescan = true
	}

	if rescan {
		w.rescanLive()
		return true
	}
	// Every face that kept or created a vertex is still there, so the live
	// set is the old one minus what the plane cut off plus the crossings.
	live, m := w.live[:0], 0.0
	for _, vi := range w.live {
		if d[vi] <= eps {
			live = append(live, vi)
			m = maxSq(m, w.r2[vi])
		}
	}
	for vi := firstNew; vi < len(w.verts); vi++ {
		live = append(live, vi)
		m = maxSq(m, w.r2[vi])
	}
	w.live, w.maxR2 = live, m
	return true
}

// cutFaces walks the faces for a plane that cuts the cell, d holding the
// live vertices' values: a face whose vertices are all strictly inside
// keeps its range, a touched face is rebuilt onto the arena's tail, a face
// left with fewer than three vertices is dropped, and the vertices on the
// plane are collected into w.cut in discovery order. It reports whether a
// dropped face had kept a vertex.
func (w *sweep) cutFaces(d []float64) (dropped bool) {
	eps := w.eps
	w.xrec, w.cut = w.xrec[:0], w.cut[:0]
	if len(w.xhead) < len(w.verts) {
		// Every entry is -1 between cuts, so a larger registry starts afresh.
		w.xhead = make([]int32, 2*len(w.verts))
		for i := range w.xhead {
			w.xhead[i] = -1
		}
	}
	// loops is the arena, appended to locally and stored back at the end;
	// a face's loop stays valid while it grows: appends write past every
	// existing range, and a reallocation leaves the old array intact.
	loops, nf := w.loops, 0
	for _, f := range w.faces {
		loop := loops[f.start:f.end]
		if inside(d, loop, -eps) {
			w.faces[nf] = f
			nf++
			continue
		}
		start := len(loops)
		cur, dc := loop[0], d[loop[0]]
		for i := 1; i <= len(loop); i++ {
			nxt := loop[0]
			if i < len(loop) {
				nxt = loop[i]
			}
			dn := d[nxt]
			if dc <= eps { // keep on-plane vertices
				loops = append(loops, cur)
				if dc >= -eps {
					w.addCut(cur) // on-plane original vertex
				}
			}
			// A new intersection vertex is needed only for a strict
			// crossing; on-plane vertices are themselves the intersection.
			if dc < -eps && dn > eps {
				loops = append(loops, w.cross(cur, nxt, cur, nxt))
			} else if dc > eps && dn < -eps {
				loops = append(loops, w.cross(cur, nxt, nxt, cur))
			}
			cur, dc = nxt, dn
		}
		if n := len(loops) - start; n >= 3 {
			w.faces[nf] = faceRec{neighbor: f.neighbor, start: start, end: start + n}
			nf++
		} else {
			loops = loops[:start]
			dropped = dropped || n > 0
		}
	}
	w.loops, w.faces = loops, w.faces[:nf]
	for _, r := range w.xrec {
		w.xhead[r.in] = -1
	}
	return dropped
}

// inside reports whether every vertex of loop has d below lo.
func inside(d []float64, loop []int, lo float64) bool {
	for _, vi := range loop {
		if !(d[vi] < lo) {
			return false
		}
	}
	return true
}

// cross returns the intersection vertex of the strictly crossing edge
// (i, j), whose inside vertex is in and outside vertex out. On first use
// it is made, interpolated from i towards j (the direction the first face
// to walk the edge meets it in), and added to the cut; the edge's second
// face finds it in the registry.
func (w *sweep) cross(i, j, in, out int) int {
	for r := w.xhead[in]; r >= 0; r = w.xrec[r].next {
		if int(w.xrec[r].out) == out {
			return int(w.xrec[r].v)
		}
	}
	d := w.dist
	t := d[i] / (d[i] - d[j])
	vi := w.addVertex(w.verts[i].Lerp(w.verts[j], t))
	w.xrec = append(w.xrec, crossRec{in: int32(in), out: int32(out), v: int32(vi), next: w.xhead[in]})
	w.xhead[in] = int32(len(w.xrec) - 1)
	w.cut = append(w.cut, vi)
	return vi
}

// maxSq is max(m, r) for the squared radii of the live set, which are
// never -0: r wins when it is larger or NaN, and a NaN m stays, so the
// result has max's bits without the builtin's signed-zero work.
func maxSq(m, r float64) float64 {
	if r > m || r != r {
		return r
	}
	return m
}

// rescanLive rebuilds the live set and maxR2 from the face loops.
func (w *sweep) rescanLive() {
	seen := w.clearedRemap()
	w.live, w.maxR2 = w.live[:0], 0
	for _, f := range w.faces {
		for _, vi := range w.loops[f.start:f.end] {
			if seen[vi] < 0 {
				seen[vi] = 0
				w.live = append(w.live, vi)
				w.maxR2 = maxSq(w.maxR2, w.r2[vi])
			}
		}
	}
}

// clearedRemap returns remap sized to the vertex buffer, every entry -1.
func (w *sweep) clearedRemap() []int32 {
	n := len(w.verts)
	if cap(w.remap) < n {
		w.remap = make([]int32, n, 2*n)
	}
	w.remap = w.remap[:n]
	for i := range w.remap {
		w.remap[i] = -1
	}
	return w.remap
}

// finish compacts the cell onto the tails of verts, faces and loops and
// points c at what it appended, returning the grown slices. Vertices are
// numbered by first appearance over the faces in order, which is what
// compacting after every cut would have left (each compaction renumbers
// from the loops alone, so only the last one shows); a cell that was never
// cut keeps the order it began with. The sweep is left untouched, so the
// cell can be clipped further and finished again.
func (w *sweep) finish(c *Cell, verts []geom.Vec3, faces []Face, loops []int) ([]geom.Vec3, []Face, []int) {
	vbase, fbase := len(verts), len(faces)
	remap := w.clearedRemap()
	if w.cuts == 0 {
		for i, v := range w.verts {
			verts = append(verts, v)
			remap[i] = int32(i)
		}
	}
	for _, f := range w.faces {
		start := len(loops)
		for _, vi := range w.loops[f.start:f.end] {
			ni := remap[vi]
			if ni < 0 {
				ni = int32(len(verts) - vbase)
				verts = append(verts, w.verts[vi])
				remap[vi] = ni
			}
			loops = append(loops, int(ni))
		}
		faces = append(faces, Face{Neighbor: f.neighbor, Loop: loops[start:len(loops):len(loops)]})
	}
	c.Verts = verts[vbase:len(verts):len(verts)]
	c.Faces = faces[fbase:len(faces):len(faces)]
	return verts, faces, loops
}

// addCut records vi as lying on the cut plane, ignoring duplicates: each
// face through an on-plane vertex meets it. The linear scan is cheap: a convex cross-section has tens of vertices at
// most, and discovery order keeps the result deterministic (the map the
// scan replaces iterated in random order).
func (w *sweep) addCut(vi int) {
	for _, x := range w.cut {
		if x == vi {
			return
		}
	}
	w.cut = append(w.cut, vi)
}

// orderLoop sorts idx in place into a loop counterclockwise when viewed
// from the +normal side (outward Newell normal along +normal), using the
// sweep's key buffer. The order is that of math.Atan2(d·e2, d·e1) around
// the centroid, taken through angleKey, so no angle is computed.
func (w *sweep) orderLoop(verts []geom.Vec3, idx []int, normal geom.Vec3) {
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

	if cap(w.keys) < len(idx) {
		w.keys = make([]angleKey, len(idx), 2*len(idx))
	}
	keys := w.keys[:len(idx)]
	for i, vi := range idx {
		d := verts[vi].Sub(c)
		keys[i] = newAngleKey(d.Dot(e2), d.Dot(e1))
	}
	// Insertion sort of (key, index) pairs: cut loops are small, and the
	// stable in-place sort avoids the sort.Slice closure allocation.
	for i := 1; i < len(idx); i++ {
		k, v := keys[i], idx[i]
		j := i - 1
		for j >= 0 && keys[j].after(k) {
			keys[j+1], idx[j+1] = keys[j], idx[j]
			j--
		}
		keys[j+1], idx[j+1] = k, v
	}
	// Fix orientation: the Newell normal must point along +n.
	var nn geom.Vec3
	for i := range idx {
		j := i + 1
		if j == len(idx) {
			j = 0
		}
		p, q := verts[idx[i]], verts[idx[j]]
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

// angleKey orders directions as math.Atan2(y, x) orders them, without
// trigonometry. Away from its special cases Atan2 is atan(q), q = y/x,
// moved by -π, 0 or +π according to the signs of x and q; atan is
// monotone, so the band the move picks and q itself order the directions,
// with q rounded exactly as Atan2 rounds it. Two directions with one key
// have one Atan2. Where Atan2's last rounding gives two directions one
// angle (they lie within an ulp or so of each other) their keys may still
// differ, and then keep q's order instead of their order of discovery.
// A NaN component makes a NaN key, which sorts after nothing and before
// nothing, as Atan2's NaN does.
type angleKey struct {
	band int     // -1: [-π, -π/2], 0: [-π/2, π/2], +1: [π/2, π]
	q    float64 // y/x, or the stand-in for a special case of Atan2
}

// after reports whether a sorts after b: a later band, or a larger q in
// the same band; nothing sorts after or before a NaN key.
func (a angleKey) after(b angleKey) bool {
	if a.band == b.band {
		return a.q > b.q
	}
	return a.band > b.band && a.q == a.q && b.q == b.q
}

// newAngleKey is the key of the direction (x, y), mirroring the branches
// of math.Atan2(y, x). A finite nonzero quotient is its general case;
// everything else goes through atan2Key first.
func newAngleKey(y, x float64) angleKey {
	q := y / x
	if q == 0 || q-q != 0 {
		if k, ok := atan2Key(y, x); ok {
			return k
		}
	}
	switch {
	case x > 0:
		return angleKey{q: q}
	case q <= 0:
		return angleKey{band: 1, q: q} // atan(q) + π
	}
	return angleKey{band: -1, q: q} // atan(q) - π
}

// atan2Key is the key of math.Atan2(y, x) for a NaN or zero component, in
// Atan2's order of cases, with the band and q whose atan gives Atan2's
// value; ok is false otherwise, and the general case applies: to finite
// components whose quotient under- or overflowed, as in Atan2, and to
// infinite ones, which the finite vertices of a cell never give.
func atan2Key(y, x float64) (k angleKey, ok bool) {
	switch {
	case x != x || y != y:
		return angleKey{q: math.NaN()}, true
	case y == 0 && x >= 0 && !math.Signbit(x):
		return angleKey{}, true // ±0
	case y == 0 && math.Signbit(y):
		return angleKey{band: -1}, true // -π: atan(0) - π
	case y == 0:
		return angleKey{band: 1}, true // +π
	case x == 0:
		return angleKey{q: math.Copysign(math.Inf(1), y)}, true // ±π/2
	}
	return angleKey{}, false
}
