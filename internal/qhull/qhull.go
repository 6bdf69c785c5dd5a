// Package qhull is a from-scratch implementation of the 3D Quickhull convex
// hull algorithm (Barber, Dobkin, Huhdanpaa 1996), standing in for the Qhull
// library the paper parallelizes. tess uses it exactly where the paper uses
// Qhull's hull pass: ordering the vertices of each Voronoi cell into faces
// and computing cell volumes and surface areas.
//
// The implementation follows the classic structure: an initial simplex from
// extreme points, per-face conflict lists, horizon detection by visibility
// BFS, and cone construction over the horizon. Coplanarity is handled with
// an epsilon scaled to the input extent; points within tolerance of a face
// are treated as interior (Qhull's "coplanar points" behaviour with merged
// facets).
package qhull

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ErrDegenerate is returned when the input has no full-dimensional hull
// (fewer than 4 points, or all points coplanar/collinear within tolerance).
var ErrDegenerate = errors.New("qhull: degenerate input (not full-dimensional)")

// Face is a triangular hull facet with outward orientation: vertices are
// counterclockwise when viewed from outside.
type Face struct {
	V     [3]int // indices into the input point slice
	Plane geom.Plane
}

// Hull is a 3D convex hull.
type Hull struct {
	// Points is the input point slice (not copied).
	Points []geom.Vec3
	// Faces are the triangular facets with outward normals.
	Faces []Face
	// VertexIndices lists the indices of input points that are hull
	// vertices, in increasing order.
	VertexIndices []int

	eps float64
}

type face struct {
	v         [3]int
	plane     geom.Plane
	neighbors [3]*face // across edge (v[i], v[(i+1)%3])
	conflicts []int
	dead      bool
	visited   bool
}

// thirdVertex returns the face vertex that is not u and not v.
func (f *face) thirdVertex(u, v int) int {
	for _, w := range f.v {
		if w != u && w != v {
			return w
		}
	}
	return f.v[0]
}

// Compute returns the convex hull of pts. It returns ErrDegenerate when the
// points do not span three dimensions within tolerance.
func Compute(pts []geom.Vec3) (*Hull, error) {
	if len(pts) < 4 {
		return nil, ErrDegenerate
	}
	for _, p := range pts {
		if !p.IsFinite() {
			return nil, fmt.Errorf("qhull: non-finite input point %v", p)
		}
	}

	// Tolerance scaled to the extent of the input.
	bb := geom.BoundingBox(pts)
	scale := math.Max(bb.Size().MaxAbs(), bb.Max.MaxAbs())
	eps := 1e-9 * math.Max(scale, 1e-30)

	initial, err := initialSimplex(pts, eps)
	if err != nil {
		return nil, err
	}

	// The initial simplex centroid stays strictly interior as the hull only
	// grows; it anchors the outward orientation of every cone facet (sliver
	// facets over near-coplanar horizon edges can otherwise come out with
	// inverted normals, silently corrupting visibility for later points).
	interior := pts[initial[0]].Add(pts[initial[1]]).Add(pts[initial[2]]).Add(pts[initial[3]]).Scale(0.25)

	faces := makeSimplexFaces(pts, initial)

	// Initial conflict assignment.
	inSimplex := map[int]bool{initial[0]: true, initial[1]: true, initial[2]: true, initial[3]: true}
	for i := range pts {
		if inSimplex[i] {
			continue
		}
		assignConflict(faces, i, pts, eps)
	}

	// Work queue of faces that may have conflicts.
	queue := append([]*face(nil), faces...)
	live := faces
	// Cone workspace, reused across insertions so the queue loop does not
	// allocate a fresh slice and hash table per point.
	var newFaces []*face
	edgeToFace := make(map[[2]int]*face, 64)
	drain := func() error {
		for len(queue) > 0 {
			f := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if f.dead || len(f.conflicts) == 0 {
				continue
			}
			// Farthest conflict point of f.
			best, bestD := -1, -math.Inf(1)
			for _, ci := range f.conflicts {
				if d := f.plane.Eval(pts[ci]); d > bestD {
					best, bestD = ci, d
				}
			}
			if bestD <= eps {
				f.conflicts = nil
				continue
			}
			p := best

			visible := findVisible(f, pts[p], eps)
			horizon := findHorizon(visible)
			// If p is already a hull vertex (repair re-insertions), the cone
			// is sound only when p's entire face ring is inside the visible
			// set; a retained face keeping p as a vertex would leave p with
			// two disjoint face fans — a pinched, non-manifold vertex whose
			// neighborhood later rebuilds duplicate facets. findVisible
			// leaves visited set on the visible faces, so retained faces are
			// exactly the live unvisited ones.
			pinched := false
			for _, lf := range live {
				if !lf.dead && !lf.visited && (lf.v[0] == p || lf.v[1] == p || lf.v[2] == p) {
					pinched = true
					break
				}
			}
			if len(horizon) < 3 || pinched {
				// Numerical trouble: treat the point as interior.
				for _, vf := range visible {
					vf.visited = false
				}
				removeConflict(f, p)
				queue = append(queue, f)
				continue
			}

			// Build the cone of new faces over the horizon.
			newFaces = newFaces[:0]
			clear(edgeToFace)
			for _, h := range horizon {
				nf := &face{v: [3]int{h.u, h.v, p}}
				nf.plane = geom.PlaneFromPoints(pts[h.u], pts[h.v], pts[p])
				if nf.plane.Degenerate() {
					// Fall back to a plane through the edge facing away from
					// the hull centroid; conflicts will sort themselves out on
					// later insertions.
					nf.plane = h.outside.plane
				} else {
					// Orient outward against the retained neighbor's off-edge
					// vertex: it is a hull vertex, so it must lie on the
					// non-positive side, and it is face-local — on anisotropic
					// inputs the far simplex centroid amplifies the normal's
					// angular noise by its distance and can pick the wrong
					// sign. Fall back to the interior anchor only when the
					// neighbor is cofacial and carries no signal.
					w := pts[h.outside.thirdVertex(h.u, h.v)]
					if d := nf.plane.Eval(w); d > eps {
						nf.plane = nf.plane.Flip()
					} else if d >= -eps && nf.plane.Eval(interior) > 0 {
						nf.plane = nf.plane.Flip()
					}
				}
				nf.neighbors[0] = h.outside
				// Update the retained face's pointer toward the dead region.
				for i := 0; i < 3; i++ {
					if h.outside.neighbors[i] == h.inside {
						h.outside.neighbors[i] = nf
					}
				}
				edgeToFace[[2]int{h.v, p}] = nf
				edgeToFace[[2]int{p, h.u}] = nf
				newFaces = append(newFaces, nf)
			}
			// Link new faces to each other: edge (v,p) of one is twin of (p,v)
			// of the next.
			for _, nf := range newFaces {
				// neighbors[1] is across (v, p); twin is (p, v).
				nf.neighbors[1] = edgeToFace[[2]int{p, nf.v[1]}]
				// neighbors[2] is across (p, u); twin is (u, p) == (v', p) of
				// the previous cone face.
				nf.neighbors[2] = edgeToFace[[2]int{nf.v[0], p}]
				if nf.neighbors[1] == nil || nf.neighbors[2] == nil {
					return fmt.Errorf("qhull: broken horizon linkage")
				}
			}

			// Reassign conflicts of dead faces.
			for _, vf := range visible {
				vf.dead = true
				for _, ci := range vf.conflicts {
					if ci == p {
						continue
					}
					assignConflictFaces(newFaces, ci, pts, eps)
				}
				vf.conflicts = nil
			}
			live = append(live, newFaces...)
			queue = append(queue, newFaces...)
		}
		return nil
	}
	if err := drain(); err != nil {
		return nil, err
	}

	// Convexity repair. Engulfing a coplanar patch and rebuilding it anchored
	// at a near-duplicate of one of its vertices tilts the rebuilt facets by
	// far more than eps, leaving already-inserted vertices outside a reflex
	// seam; the conflict lists never revisit them, and a later BFS from an
	// unrelated seed cannot reach the seam because the visible region of a
	// non-convex surface is disconnected. Re-seed the worst violator as a
	// conflict of the facet it violates — the BFS then starts at the seam —
	// and re-drain, a bounded number of times. Production Qhull solves this
	// class with facet merging; bounded repair plus an explicit failure keeps
	// this engine honest without that machinery.
	const maxRepairRounds = 16
	for round := 0; ; round++ {
		var wf *face
		wp, wd := -1, eps
		for _, f := range live {
			if f.dead {
				continue
			}
			for i := range pts {
				if d := f.plane.Eval(pts[i]); d > wd {
					wf, wp, wd = f, i, d
				}
			}
		}
		if wp < 0 {
			break
		}
		if round == maxRepairRounds {
			return nil, fmt.Errorf("qhull: convexity repair stalled: point %d outside by %g", wp, wd)
		}
		wf.conflicts = append(wf.conflicts, wp)
		queue = append(queue, wf)
		if err := drain(); err != nil {
			return nil, err
		}
	}

	h := &Hull{Points: pts, eps: eps}
	seen := make([]bool, len(pts))
	for _, f := range live {
		if f.dead {
			continue
		}
		h.Faces = append(h.Faces, Face{V: f.v, Plane: f.plane})
		for _, vi := range f.v {
			seen[vi] = true
		}
	}
	if len(h.Faces) < 4 {
		return nil, ErrDegenerate
	}
	// The index scan yields VertexIndices already in increasing order.
	for vi, on := range seen {
		if on {
			h.VertexIndices = append(h.VertexIndices, vi)
		}
	}
	return h, nil
}

// initialSimplex picks four points spanning a non-degenerate tetrahedron:
// the two most distant extreme points, the point farthest from their line,
// and the point farthest from the resulting plane.
func initialSimplex(pts []geom.Vec3, eps float64) ([4]int, error) {
	var out [4]int
	// Extreme points along each axis.
	ext := make([]int, 0, 6)
	for axis := 0; axis < 3; axis++ {
		lo, hi := 0, 0
		for i, p := range pts {
			if p.Component(axis) < pts[lo].Component(axis) {
				lo = i
			}
			if p.Component(axis) > pts[hi].Component(axis) {
				hi = i
			}
		}
		ext = append(ext, lo, hi)
	}
	// Most distant pair among extremes.
	bestD := -1.0
	for i := 0; i < len(ext); i++ {
		for j := i + 1; j < len(ext); j++ {
			if d := pts[ext[i]].Dist2(pts[ext[j]]); d > bestD {
				bestD = d
				out[0], out[1] = ext[i], ext[j]
			}
		}
	}
	if bestD <= eps*eps {
		return out, ErrDegenerate
	}
	// Farthest from the line (out[0], out[1]).
	a, b := pts[out[0]], pts[out[1]]
	ab := b.Sub(a)
	bestD = -1.0
	for i, p := range pts {
		d := ab.Cross(p.Sub(a)).Norm2()
		if d > bestD {
			bestD = d
			out[2] = i
		}
	}
	if bestD <= eps*eps*ab.Norm2() {
		return out, ErrDegenerate
	}
	// Farthest from the plane (out[0], out[1], out[2]).
	pl := geom.PlaneFromPoints(a, b, pts[out[2]])
	bestAbs := -1.0
	for i, p := range pts {
		d := math.Abs(pl.Eval(p))
		if d > bestAbs {
			bestAbs = d
			out[3] = i
		}
	}
	if bestAbs <= eps {
		return out, ErrDegenerate
	}
	return out, nil
}

// makeSimplexFaces builds the four outward-oriented faces of the initial
// tetrahedron with neighbor links.
func makeSimplexFaces(pts []geom.Vec3, s [4]int) []*face {
	a, b, c, d := s[0], s[1], s[2], s[3]
	// Ensure positive orientation: d above plane (a, b, c).
	if geom.Orient3DVal(pts[a], pts[b], pts[c], pts[d]) < 0 {
		b, c = c, b
	}
	// Faces of tetrahedron (a,b,c,d) with outward CCW orientation.
	tris := [4][3]int{
		{a, c, b}, // bottom, outward away from d
		{a, b, d},
		{b, c, d},
		{c, a, d},
	}
	faces := make([]*face, 4)
	for i, t := range tris {
		faces[i] = &face{v: t, plane: geom.PlaneFromPoints(pts[t[0]], pts[t[1]], pts[t[2]])}
	}
	// Link neighbors by directed edge twins.
	edge := map[[2]int]*face{}
	for _, f := range faces {
		for i := 0; i < 3; i++ {
			edge[[2]int{f.v[i], f.v[(i+1)%3]}] = f
		}
	}
	for _, f := range faces {
		for i := 0; i < 3; i++ {
			f.neighbors[i] = edge[[2]int{f.v[(i+1)%3], f.v[i]}]
		}
	}
	return faces
}

func assignConflict(faces []*face, pi int, pts []geom.Vec3, eps float64) {
	for _, f := range faces {
		if f.plane.Eval(pts[pi]) > eps {
			f.conflicts = append(f.conflicts, pi)
			return
		}
	}
}

func assignConflictFaces(faces []*face, pi int, pts []geom.Vec3, eps float64) {
	for _, f := range faces {
		if !f.dead && f.plane.Eval(pts[pi]) > eps {
			f.conflicts = append(f.conflicts, pi)
			return
		}
	}
}

func removeConflict(f *face, pi int) {
	for i, ci := range f.conflicts {
		if ci == pi {
			f.conflicts[i] = f.conflicts[len(f.conflicts)-1]
			f.conflicts = f.conflicts[:len(f.conflicts)-1]
			return
		}
	}
}

// findVisible returns all live faces visible from p, found by BFS from the
// seed face. Neighbors the point is merely coplanar with (|Eval| <= eps)
// count as visible: engulfing the coplanar patch rebuilds it as part of the
// cone, where leaving it in place would stitch the new facets onto a
// non-convex seam that no later insertion revisits (the classic failure of
// eps-fuzzy incremental hulls on inputs with 4+ cofacial points). Visited
// flags are left set on the returned faces; callers clear them via death or
// explicitly on abort.
func findVisible(seed *face, p geom.Vec3, eps float64) []*face {
	seed.visited = true
	stack := []*face{seed}
	var out []*face
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, f)
		for _, nb := range f.neighbors {
			if nb == nil || nb.visited || nb.dead {
				continue
			}
			if nb.plane.Eval(p) > -eps {
				nb.visited = true
				stack = append(stack, nb)
			}
		}
	}
	return out
}

// horizonEdge is a directed edge (u → v) on the boundary between the
// visible region (inside) and a retained face (outside), directed as it
// appears in the visible face.
type horizonEdge struct {
	u, v    int
	inside  *face
	outside *face
}

// findHorizon collects the boundary edges of the visible region in
// arbitrary order.
func findHorizon(visible []*face) []horizonEdge {
	var out []horizonEdge
	for _, f := range visible {
		for i := 0; i < 3; i++ {
			nb := f.neighbors[i]
			if nb == nil || nb.dead {
				continue
			}
			if !nb.visited {
				out = append(out, horizonEdge{
					u:       f.v[i],
					v:       f.v[(i+1)%3],
					inside:  f,
					outside: nb,
				})
			}
		}
	}
	return out
}

// Volume returns the enclosed volume of the hull.
func (h *Hull) Volume() float64 {
	if len(h.Faces) == 0 {
		return 0
	}
	// Signed sum of tetrahedra from an interior reference point; outward
	// orientation makes each term positive up to roundoff.
	ref := h.Points[h.VertexIndices[0]]
	var vol float64
	for _, f := range h.Faces {
		vol += geom.Orient3DVal(ref, h.Points[f.V[0]], h.Points[f.V[1]], h.Points[f.V[2]])
	}
	return math.Abs(vol) / 6
}
