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
// TestComputeCellScratchDetaches and the byte-identity suites above it hold
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

	// Crossing registry of the current cut: clipped edge (lo, hi vertex
	// index) -> the intersection vertex it produced, shared by the two
	// faces adjoining the edge. A linear scan replaces a map: a convex cell
	// crosses the plane in a small cycle of edges.
	crossE [][2]int
	crossV []int

	// Vertices on the cut plane, in discovery order, plus the angular sort
	// keys used to order them into the new face's loop.
	cut    []int
	angles []float64

	// old -> new vertex index for finish, -1 for unreferenced; the live
	// rescan borrows it as a seen-marker.
	remap []int32
}

type faceRec struct {
	neighbor   int64
	start, end int
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
	w.cuts = 0
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
		w.maxR2 = max(w.maxR2, r)
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

// clip cuts away the positive half-space of pl, recording neighborID on the
// new face, and reports whether the plane changed the cell. A plane whose
// positive side contains the whole cell empties it.
//
// Only the live vertices are evaluated; a face whose vertices are all
// strictly inside keeps its arena range, and a touched face is walked onto
// the arena's tail: vertices with d <= eps survive, a strict crossing
// inserts the edge's intersection vertex (computed once, in the direction
// the first of the two adjoining faces meets it), and everything on the
// plane is collected, in discovery order, into the new face.
func (w *sweep) clip(pl geom.Plane, neighborID int64) bool {
	if len(w.live) == 0 {
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
		return false
	}
	w.cuts++
	if !anyIn {
		w.faces, w.live, w.maxR2 = w.faces[:0], w.live[:0], 0
		return true
	}

	w.crossE, w.crossV, w.cut = w.crossE[:0], w.crossV[:0], w.cut[:0]
	firstNew := len(w.verts)
	// A dropped face that had kept a vertex may have been the last one
	// referencing it, and the incremental live update cannot see that.
	rescan := false
	nf := 0
	for _, f := range w.faces {
		// loop stays valid while the arena grows: appends write past every
		// existing range, and a reallocation leaves the old array intact.
		loop := w.loops[f.start:f.end]
		inside := true
		for _, vi := range loop {
			if !(d[vi] < -eps) {
				inside = false
				break
			}
		}
		if inside {
			w.faces[nf] = f
			nf++
			continue
		}
		start := len(w.loops)
		cur := loop[0]
		for i := range loop {
			nxt := loop[0]
			if i+1 < len(loop) {
				nxt = loop[i+1]
			}
			if d[cur] <= eps { // keep on-plane vertices
				w.loops = append(w.loops, cur)
				if d[cur] >= -eps {
					w.addCut(cur) // on-plane original vertex
				}
			}
			// A new intersection vertex is needed only for a strict
			// crossing; on-plane vertices are themselves the intersection.
			if (d[cur] < -eps && d[nxt] > eps) || (d[cur] > eps && d[nxt] < -eps) {
				vi := w.cross(cur, nxt)
				w.loops = append(w.loops, vi)
				w.addCut(vi)
			}
			cur = nxt
		}
		n := len(dedupeLoop(w.loops[start:]))
		if n >= 3 {
			w.loops = w.loops[:start+n]
			w.faces[nf] = faceRec{neighbor: f.neighbor, start: start, end: start + n}
			nf++
		} else {
			w.loops = w.loops[:start]
			rescan = rescan || n > 0
		}
	}
	w.faces = w.faces[:nf]

	// Assemble the new face on the cut plane by angular ordering around the
	// projected centroid (valid because the cell is convex, so the cut
	// cross-section is a convex polygon).
	if len(w.cut) >= 3 {
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
			m = max(m, w.r2[vi])
		}
	}
	for vi := firstNew; vi < len(w.verts); vi++ {
		live = append(live, vi)
		m = max(m, w.r2[vi])
	}
	w.live, w.maxR2 = live, m
	return true
}

// cross returns the intersection vertex of the strictly crossing edge
// (i, j), creating it on first use: interpolated from i towards j, the
// direction the first face to walk the edge meets it in.
func (w *sweep) cross(i, j int) int {
	a, b := i, j
	if a > b {
		a, b = b, a
	}
	for k, e := range w.crossE {
		if e[0] == a && e[1] == b {
			return w.crossV[k]
		}
	}
	d := w.dist
	t := d[i] / (d[i] - d[j])
	vi := w.addVertex(w.verts[i].Lerp(w.verts[j], t))
	w.crossE = append(w.crossE, [2]int{a, b})
	w.crossV = append(w.crossV, vi)
	return vi
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
				w.maxR2 = max(w.maxR2, w.r2[vi])
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

// finishOwned is finish into exactly-sized storage of c's own (one
// allocation each for vertices, face headers, and a shared loop arena).
func (w *sweep) finishOwned(c *Cell) {
	nv, nl := len(w.live), 0
	if w.cuts == 0 {
		nv = len(w.verts)
	}
	for _, f := range w.faces {
		nl += f.end - f.start
	}
	w.finish(c, make([]geom.Vec3, 0, nv), make([]Face, 0, len(w.faces)), make([]int, 0, nl))
}

// dedupeLoop removes consecutive duplicate indices (including wraparound).
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

// addCut records vi as lying on the cut plane, ignoring duplicates. The
// linear scan is cheap: a convex cross-section has tens of vertices at
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
// sweep's angle buffer.
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

	if cap(w.angles) < len(idx) {
		w.angles = make([]float64, len(idx), 2*len(idx))
	} else {
		w.angles = w.angles[:len(idx)]
	}
	for i, vi := range idx {
		d := verts[vi].Sub(c)
		w.angles[i] = math.Atan2(d.Dot(e2), d.Dot(e1))
	}
	// Insertion sort of (angle, index) pairs: cut loops are small, and the
	// stable in-place sort avoids the sort.Slice closure allocation.
	for i := 1; i < len(idx); i++ {
		a, v := w.angles[i], idx[i]
		j := i - 1
		for j >= 0 && w.angles[j] > a {
			w.angles[j+1], idx[j+1] = w.angles[j], idx[j]
			j--
		}
		w.angles[j+1], idx[j+1] = a, v
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
