// Package delaunay implements an incremental 3D Delaunay tetrahedralization
// (Bowyer-Watson with walking point location, inserting in BRIO rounds of
// Hilbert order; see order.go). The paper treats the Delaunay triangulation
// as the dual of the Voronoi tessellation (Sec. II-B) and its
// lineage of void finders (ZOBOV, the Watershed Void Finder) starts from the
// Delaunay Tessellation Field Estimator; this package provides both the
// dual-extraction cross-check used by the tests and the DTFE density
// estimator (internal/dtfe).
package delaunay

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ErrDegenerate is returned when fewer than 4 non-coplanar points are given.
var ErrDegenerate = errors.New("delaunay: degenerate input")

// Tet is one tetrahedron of the final triangulation, positively oriented
// (geom.Orient3DVal(V[0], V[1], V[2], V[3]) > 0), with vertex indices into the
// input point slice.
type Tet struct {
	V [4]int
	// Nb[i] is the index (into Triangulation.Tets) of the neighbor across
	// the face opposite V[i], or -1 on the convex hull boundary.
	Nb [4]int
}

// Triangulation is a 3D Delaunay tetrahedralization.
type Triangulation struct {
	Points []geom.Vec3
	Tets   []Tet
	// Rep maps each input point to the vertex that represents it in the
	// triangulation: Rep[i] == i for points that became vertices, and the
	// vertex a point merged into for duplicates — for exactly coincident
	// points, the lowest index among them. A nil Rep (hand-built
	// triangulations) means the identity mapping.
	Rep []int
}

// Representative returns the vertex index that represents input point i
// (i itself unless i was merged away as a duplicate).
func (tr *Triangulation) Representative(i int) int {
	if tr.Rep == nil {
		return i
	}
	return tr.Rep[i]
}

// tet is one slot of the builder's tet array: 36 bytes, so the cavity
// search, the walk and the strip pass stay cache-resident.
type tet struct {
	v  [4]int32
	nb [4]int32 // slot of the neighbor opposite v[i]; -1 if none
	// serial is the tet's creation order — the order the finished
	// triangulation lists it in — or -1 while the slot is on the free list.
	serial int32
}

// bface is one boundary face of a Bowyer-Watson cavity.
type bface struct {
	verts   [3]int32 // oriented facing away from the cavity
	from    int32    // cavity tet the face belongs to
	outside int32    // neighbor tet beyond the face, or -1
}

// edgeEntry is one entry of the table that links the new tets of an
// insertion to each other. Two new tets share a face exactly when their
// boundary faces share an edge, so the packed edge is the key.
type edgeEntry struct {
	key   uint64 // lower vertex index <<32 | higher
	owner uint32 // slot<<2|face of the tet waiting for its partner, or edgeMatched
	stamp uint32 // insertion that wrote the entry; any other value means empty
}

const edgeMatched = ^uint32(0)

// maxTets bounds the tets one build may create, so serials and slots fit
// an int32 and slot<<2|face fits edgeEntry.owner.
const maxTets = 1 << 30

// Stats are exact counts of the work one Build did. They depend only on
// the input points — never on timing, GOMAXPROCS or what the Builder built
// before — so they say why a triangulation cost what it cost and repeat
// exactly across runs.
type Stats struct {
	Points     int64 // input points
	Duplicates int64 // points merged into an earlier coincident vertex
	// TetsCreated counts every tet ever made (the initial one included);
	// LiveTets are those left after the last insertion, the ones touching
	// the four enclosing super vertices included; PeakSlots is the size the
	// tet array reached — live tets plus the free list.
	TetsCreated   int64
	LiveTets      int64
	PeakSlots     int64
	WalkSteps     int64 // tets visited by point location
	InSphereTests int64
	CavityTets    int64 // tets deleted, summed over insertions
	BoundaryFaces int64 // cavity boundary faces, summed over insertions
}

type builder struct {
	pts []geom.Vec3 // input points + 4 super vertices at the end
	n   int         // number of real points
	rep []int       // rep[i]: representative vertex of a merged duplicate, else i

	// tets holds the live tets and the slots on the free list. An insertion
	// frees its cavity's slots only once its new tets are linked, and new
	// tets take free slots first, so the array stays within one cavity of
	// the live count however many tets a build creates and destroys.
	tets []tet
	free []int32
	last int32 // walk start hint: the first tet of the latest insertion

	// Per-insert workspace, retained across insertions (and, through
	// Builder, across whole builds). Everything here grows by append or
	// grown, never to an exact size, so a cold build allocates O(n) bytes.
	//
	// mark[t] is 2*stamp once t joined the current insertion's cavity and
	// 2*stamp+1 once its circumsphere was tested and does not contain the
	// point, so a tet reached from several cavity tets is tested once.
	mark     []uint32
	stamp    uint32
	cavity   []int32
	boundary []bface
	edges    []edgeEntry

	// Output buffers reused across builds. order holds the insertion order
	// (round, Hilbert key, index) during the insertions and the output order
	// (serial<<32|slot) after them; orderTmp is sortHigh's spare.
	order    []uint64
	orderTmp []uint64
	outTets  []Tet
	remap    []int32

	stats Stats
}

// grown returns buf resliced to n elements, their contents unspecified. When
// it has to reallocate it leaves a quarter of headroom — geometric growth,
// never the exact size — so a run of slightly larger requests (one per
// insertion of a cold build, one per snapshot of a warm session)
// reallocates O(log n) times instead of every time. Fresh storage is zero.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// Builder is a reusable triangulation workspace. The zero value is ready to
// use; successive Builds reuse the previous build's tet, cavity, and output
// storage, removing most allocation from warm in situ rebuilds.
//
// The Triangulation returned by Build aliases the Builder's buffers and is
// valid only until the next Build on the same Builder; callers that need to
// keep the previous mesh must copy it first (the same loan contract as
// Session.Step). A Builder must not be used from multiple goroutines
// concurrently.
type Builder struct {
	b builder
}

// Stats returns the counts of the most recent Build.
func (s *Builder) Stats() Stats { return s.b.stats }

// Build computes the Delaunay tetrahedralization of pts. Duplicate points
// (within ~1e-12 of the input extent) are merged: only the first one
// inserted becomes a vertex — of exactly coincident points, the one with the
// lowest index — and Rep records the mapping. The insertion order depends
// only on the coordinates, and Tets lists the tets in creation order.
func Build(pts []geom.Vec3) (*Triangulation, error) {
	var s Builder
	return s.Build(pts)
}

// Build is like the package-level Build but reuses the Builder's retained
// buffers. See the Builder doc for the aliasing contract.
func (s *Builder) Build(pts []geom.Vec3) (*Triangulation, error) {
	if len(pts) < 4 {
		return nil, ErrDegenerate
	}
	if len(pts) > maxTets {
		return nil, fmt.Errorf("delaunay: %d points, more than the %d supported", len(pts), maxTets)
	}
	for _, p := range pts {
		if !p.IsFinite() {
			return nil, fmt.Errorf("delaunay: non-finite point %v", p)
		}
	}
	b := &s.b
	dupEps := b.reset(pts)
	for _, k := range b.order {
		if err := b.insert(int32(uint32(k)), dupEps); err != nil {
			return nil, err
		}
	}
	tets := b.strip()
	if len(tets) == 0 {
		return nil, ErrDegenerate
	}
	return &Triangulation{Points: pts, Tets: tets, Rep: b.rep}, nil
}

// reset starts a build of pts from the enclosing super-tetrahedron, leaves
// the insertion order in b.order, and returns the distance below which two
// points are duplicates.
func (b *builder) reset(pts []geom.Vec3) (dupEps float64) {
	bb := geom.BoundingBox(pts)
	size := math.Max(bb.Size().MaxAbs(), 1e-12)

	b.n = len(pts)
	b.pts = append(b.pts[:0], pts...)
	b.pts = append(b.pts, superVertices(bb.Center(), size)...)
	b.rep = grown(b.rep, len(pts))
	for i := range b.rep {
		b.rep[i] = i
	}

	s0 := int32(len(pts))
	first := tet{v: [4]int32{s0, s0 + 1, s0 + 2, s0 + 3}, nb: [4]int32{-1, -1, -1, -1}}
	if geom.Orient3DVal(b.pts[s0], b.pts[s0+1], b.pts[s0+2], b.pts[s0+3]) < 0 {
		first.v[2], first.v[3] = first.v[3], first.v[2]
	}
	b.tets = append(b.tets[:0], first)
	b.mark = append(b.mark[:0], 0)
	b.free = b.free[:0]
	b.last = 0
	b.stats = Stats{Points: int64(len(pts)), TetsCreated: 1}
	b.sortInsertions(bb.Min, size)
	return 1e-12 * size
}

// strip drops the tets that use a super vertex and returns the rest in
// creation order — the order a builder that never reused a slot would hold
// them in, and the order dtfe sums star volumes in — with neighbor links
// renumbered to match.
func (b *builder) strip() []Tet {
	b.stats.PeakSlots = int64(len(b.tets))
	b.stats.LiveTets = int64(len(b.tets) - len(b.free))
	n := int32(b.n)
	b.order = b.order[:0]
	for slot, t := range b.tets {
		if t.serial < 0 || t.v[0] >= n || t.v[1] >= n || t.v[2] >= n || t.v[3] >= n {
			continue
		}
		b.order = append(b.order, uint64(t.serial)<<32|uint64(slot))
	}
	b.orderTmp = grown(b.orderTmp, len(b.order))
	b.order, b.orderTmp = sortHigh(b.order, b.orderTmp)

	b.remap = grown(b.remap, len(b.tets))
	for i := range b.remap {
		b.remap[i] = -1
	}
	for i, k := range b.order {
		b.remap[uint32(k)] = int32(i)
	}
	b.outTets = grown(b.outTets, len(b.order))
	for i, k := range b.order {
		t := &b.tets[uint32(k)]
		out := &b.outTets[i]
		for f := 0; f < 4; f++ {
			out.V[f] = int(t.v[f])
			out.Nb[f] = -1
			if t.nb[f] >= 0 {
				out.Nb[f] = int(b.remap[t.nb[f]])
			}
		}
	}
	return b.outTets
}

// sortHigh sorts keys by their high 32 bits — the serial of serial<<32|slot,
// the round and Hilbert key of an insertion key — keeping keys with equal
// high bits in their given order: a least-significant-digit radix sort in
// three 11-bit passes that ping-pong between keys and tmp. It returns the
// sorted slice and the spare.
func sortHigh(keys, tmp []uint64) (sorted, spare []uint64) {
	for shift := 32; shift < 64; shift += 11 {
		var start [1 << 11]int
		for _, k := range keys {
			start[k>>shift&(1<<11-1)]++
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> shift & (1<<11 - 1)
			tmp[start[d]] = k
			start[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}

// superVertices returns four vertices of a huge regular tetrahedron around
// center c.
func superVertices(c geom.Vec3, size float64) []geom.Vec3 {
	m := 64 * size
	return []geom.Vec3{
		c.Add(geom.V(m, m, m)),
		c.Add(geom.V(m, -m, -m)),
		c.Add(geom.V(-m, m, -m)),
		c.Add(geom.V(-m, -m, m)),
	}
}

// newStamp starts a new insertion for the mark array and the edge table.
func (b *builder) newStamp() {
	b.stamp++
	if b.stamp == 1<<31 { // 2*stamp would wrap: clear and restart
		clear(b.mark)
		clear(b.edges[:cap(b.edges)])
		b.stamp = 1
	}
}

// insert adds point index pi via Bowyer-Watson cavity retriangulation.
func (b *builder) insert(pi int32, dupEps float64) error {
	p := b.pts[pi]
	ti, err := b.locate(p, dupEps)
	if err != nil {
		return err
	}
	// Duplicate check against the containing tet's vertices.
	for _, vi := range b.tets[ti].v {
		if b.pts[vi].Dist(p) <= dupEps {
			if int(vi) < b.n {
				b.rep[pi] = int(vi)
			}
			b.stats.Duplicates++
			return nil // merged duplicate
		}
	}

	// Cavity: all tets whose circumsphere contains p, BFS from ti. A
	// neighbor's membership is decided the first time it is seen — it is
	// in exactly when its circumsphere contains p — so the face toward a
	// rejected (or absent) neighbor is a boundary face there and then, and
	// the faces come out in cavity order, face order.
	b.newStamp()
	in, out := 2*b.stamp, 2*b.stamp+1
	b.cavity = append(b.cavity[:0], ti)
	b.mark[ti] = in
	b.boundary = b.boundary[:0]
	for head := 0; head < len(b.cavity); head++ {
		cur := b.cavity[head]
		t := &b.tets[cur]
		for f, nb := range t.nb {
			if nb >= 0 {
				m := b.mark[nb]
				if m == in {
					continue
				}
				if m != out {
					if b.inSphere(nb, p) {
						b.mark[nb] = in
						b.cavity = append(b.cavity, nb)
						continue
					}
					b.mark[nb] = out
				}
			}
			b.boundary = append(b.boundary, bface{verts: faceVerts(t.v, f), from: cur, outside: nb})
		}
	}
	if len(b.boundary) < 4 {
		return fmt.Errorf("delaunay: degenerate cavity (%d boundary faces) inserting %v", len(b.boundary), p)
	}
	b.stats.CavityTets += int64(len(b.cavity))
	b.stats.BoundaryFaces += int64(len(b.boundary))
	if b.stats.TetsCreated+int64(len(b.boundary)) > maxTets {
		return fmt.Errorf("delaunay: more than %d tets created", maxTets)
	}

	// The edge table holds at most three entries per boundary face (half
	// that on a closed cavity), so this size keeps it under 3/4 full.
	size := 8
	for size < 4*len(b.boundary) {
		size *= 2
	}
	b.edges = grown(b.edges, size)
	pending := 0

	// New tets: each boundary face plus p. Faces from faceVerts are
	// oriented so that Orient3DVal(fv[0], fv[1], fv[2], apex-of-old-tet) > 0;
	// the cavity interior (where p is) is on the other side, so (fv[0],
	// fv[2], fv[1], p) is positively oriented.
	for i := range b.boundary {
		bf := &b.boundary[i]
		v := [4]int32{bf.verts[0], bf.verts[2], bf.verts[1], pi}
		if geom.Orient3DVal(b.pts[v[0]], b.pts[v[1]], b.pts[v[2]], p) <= 0 {
			v[1], v[2] = v[2], v[1]
		}
		idx := b.newSlot()
		if i == 0 {
			b.last = idx
		}
		// p is v[3], so the face opposite it is the boundary face.
		b.tets[idx] = tet{v: v, nb: [4]int32{-1, -1, -1, bf.outside}, serial: int32(b.stats.TetsCreated)}
		b.stats.TetsCreated++
		if bf.outside >= 0 {
			// The outside tet still points at the cavity tet across this
			// face; no new tet can sit in that slot before the cavity is
			// freed below, so the index identifies the face.
			o := &b.tets[bf.outside]
			for f, nb := range o.nb {
				if nb == bf.from {
					o.nb[f] = idx
				}
			}
		}
		// The three faces containing p pair up with other new tets.
		pending += b.linkEdge(v[1], v[2], idx, 0)
		pending += b.linkEdge(v[0], v[2], idx, 1)
		pending += b.linkEdge(v[0], v[1], idx, 2)
	}
	if pending != 0 {
		return fmt.Errorf("delaunay: %d unmatched internal faces inserting %v", pending, p)
	}

	// Every tet that pointed into the cavity now points at a new tet, so
	// no live tet references these slots and they can be handed out again.
	for _, ci := range b.cavity {
		b.tets[ci].serial = -1
	}
	b.free = append(b.free, b.cavity...)
	return nil
}

// newSlot returns a slot for a new tet: a free one if there is any, else a
// fresh one at the end of the array.
func (b *builder) newSlot() int32 {
	if n := len(b.free); n > 0 {
		idx := b.free[n-1]
		b.free = b.free[:n-1]
		return idx
	}
	b.tets = append(b.tets, tet{})
	b.mark = append(b.mark, 0)
	return int32(len(b.tets) - 1)
}

// linkEdge registers face f of new tet idx — the face through p and the
// boundary edge (u, w) — in the edge table. The first tet to bring an edge
// waits there; the second is linked to it both ways and the entry is
// retired. It returns the change in the number of waiting faces: +1 or -1.
// A third face on a retired edge waits again, exactly as if the entry had
// been deleted, so a corrupt cavity leaves a non-zero count behind.
func (b *builder) linkEdge(u, w, idx int32, f uint32) int {
	if u > w {
		u, w = w, u
	}
	key := uint64(u)<<32 | uint64(w)
	owner := uint32(idx)<<2 | f
	mask := uint64(len(b.edges) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		e := &b.edges[i]
		switch {
		case e.stamp != b.stamp:
			*e = edgeEntry{key: key, owner: owner, stamp: b.stamp}
			return 1
		case e.key != key:
			continue
		case e.owner == edgeMatched:
			e.owner = owner
			return 1
		}
		other := int32(e.owner >> 2)
		b.tets[idx].nb[f] = other
		b.tets[other].nb[e.owner&3] = idx
		e.owner = edgeMatched
		return -1
	}
}

// inSphere reports whether p is strictly inside the circumsphere of tet ti.
// On-sphere (cospherical) points are treated as outside, which keeps the
// cavity structurally sound on degenerate inputs such as exact lattices at
// the cost of an arbitrary (but valid) triangulation of the cospherical
// configuration.
func (b *builder) inSphere(ti int32, p geom.Vec3) bool {
	b.stats.InSphereTests++
	t := &b.tets[ti]
	return geom.InSphere(b.pts[t.v[0]], b.pts[t.v[1]], b.pts[t.v[2]], b.pts[t.v[3]], p) > 0
}

// locate finds a live tet containing p, walking from the last insertion
// site and falling back to exhaustive search on numerical trouble. A p within
// dupEps of a vertex ends the walk at a tet of that vertex.
func (b *builder) locate(p geom.Vec3, dupEps float64) (int32, error) {
	// b.last is live: it is the first tet the latest insertion created
	// (tet 0 before any), and nothing has been deleted since.
	ti := b.last
	limit := 4*b.stats.TetsCreated + 16
	for steps := int64(1); steps <= limit; steps++ {
		t := &b.tets[ti]
		moved := false
		for f := 0; f < 4; f++ {
			fv := faceVerts(t.v, f)
			// Face oriented outward relative to opposite vertex; p beyond
			// it means the containing tet is on the other side. A p on a
			// vertex of the face is on the face, whatever sign the rounded
			// determinant has: crossing would circle that vertex until the
			// step cap sent a duplicate to the exhaustive scan.
			if geom.Orient3DVal(b.pts[fv[0]], b.pts[fv[1]], b.pts[fv[2]], p) < 0 && !b.onVertex(fv, p, dupEps) {
				if t.nb[f] < 0 {
					return ti, fmt.Errorf("delaunay: walked off the hull locating %v", p)
				}
				ti = t.nb[f]
				moved = true
				break
			}
		}
		if !moved {
			b.stats.WalkSteps += steps
			return ti, nil
		}
	}
	b.stats.WalkSteps += limit
	// Fallback: exhaustive scan for the earliest-created tet that contains
	// p within tolerance.
	found := int32(-1)
	for i := range b.tets {
		t := &b.tets[i]
		if t.serial < 0 || (found >= 0 && t.serial > b.tets[found].serial) {
			continue
		}
		inside := true
		for f := 0; f < 4; f++ {
			fv := faceVerts(t.v, f)
			if geom.Orient3DVal(b.pts[fv[0]], b.pts[fv[1]], b.pts[fv[2]], p) < -1e-12 {
				inside = false
				break
			}
		}
		if inside {
			found = int32(i)
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("delaunay: no tet contains %v", p)
	}
	return found, nil
}

// onVertex reports whether p is within dupEps of one of the vertices vs.
func (b *builder) onVertex(vs [3]int32, p geom.Vec3, dupEps float64) bool {
	for _, v := range vs {
		if b.pts[v].Dist(p) <= dupEps {
			return true
		}
	}
	return false
}

// faceVerts returns the vertices of the face opposite v[f], oriented so
// that Orient3DVal(face, v[f]) > 0 for a positively oriented tet.
func faceVerts[T int | int32](v [4]T, f int) [3]T {
	// For a positively oriented tet (v0,v1,v2,v3):
	// face opposite 0: (1,3,2), opposite 1: (0,2,3),
	// opposite 2: (0,3,1), opposite 3: (0,1,2).
	switch f {
	case 0:
		return [3]T{v[1], v[3], v[2]}
	case 1:
		return [3]T{v[0], v[2], v[3]}
	case 2:
		return [3]T{v[0], v[3], v[1]}
	default:
		return [3]T{v[0], v[1], v[2]}
	}
}

// TetVolume returns the volume of tet ti.
func (tr *Triangulation) TetVolume(ti int) float64 {
	t := tr.Tets[ti]
	return geom.TetVolume(tr.Points[t.V[0]], tr.Points[t.V[1]], tr.Points[t.V[2]], tr.Points[t.V[3]])
}

// Locate returns the index of a tet containing p, or -1 if p is outside
// the convex hull.
func (tr *Triangulation) Locate(p geom.Vec3) int {
	for i, t := range tr.Tets {
		inside := true
		for f := 0; f < 4; f++ {
			fv := faceVerts(t.V, f)
			if geom.Orient3DVal(tr.Points[fv[0]], tr.Points[fv[1]], tr.Points[fv[2]], p) < -1e-12 {
				inside = false
				break
			}
		}
		if inside {
			return i
		}
	}
	return -1
}
