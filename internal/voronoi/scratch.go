package voronoi

import (
	"math"

	"repro/internal/geom"
)

// Scratch owns the reusable working storage for allocation-free cell
// construction. The clipping kernel allocates nothing once a Scratch's
// buffers have grown to the working-set size, which is what makes
// per-thread cell computation cheap (the multithreaded Voro++ design:
// one reusable cell/scratch per worker, many cells through it).
//
// A Scratch is NOT safe for concurrent use; give each worker goroutine its
// own. While a cell is being built through a Scratch its Verts and Faces
// alias scratch storage; ComputeCellScratch detaches the finished cell into
// owned memory before returning, so returned cells never alias the Scratch.
type Scratch struct {
	// clip state: plane distances per vertex, the vertex accumulation
	// buffer (surviving + intersection vertices), and the compacted vertex
	// buffer the cell aliases between clips.
	dist     []float64
	tmpVerts []geom.Vec3
	outVerts []geom.Vec3

	// Ping-pong face storage: the cell's faces alias faces[bank] with loop
	// indices carved out of arena[bank]; each clip reads the current bank
	// and rebuilds into the other, because a face rebuild must read the
	// pre-clip loops while it writes the post-clip ones.
	faces [2][]Face
	arena [2][]int
	bank  int

	// Per-clip assembly records: faces are first collected as (neighbor,
	// arena range) because the arena may still grow while later faces are
	// being built; Face headers with stable subslices are materialized
	// once the arena is final.
	metas []faceMeta

	// Crossing registry: clipped edge (lo, hi vertex index) -> index of the
	// intersection vertex it produced, shared by the two faces adjoining
	// the edge. A linear scan replaces the map: a convex cell crosses the
	// plane in a small cycle of edges.
	crossE [][2]int
	crossV []int

	// Vertices on the cut plane, in discovery order, plus the angular sort
	// keys used to order them into the new face's loop.
	cut    []int
	angles []float64

	// compact state: old -> new vertex index, -1 for unreferenced.
	remap []int32

	// Reusable buffer for the clipping sweep's candidate stream.
	cands []candidate

	counts KernelCounts
}

// KernelCounts is the candidate funnel of the clipping sweep, summed over
// the cells computed through one Scratch: of the points the index measured
// in the shells it visited, those that survived the cutting-range cutoff
// entered the ordered stream, those still in range when their turn came
// were tested against the cell, and some of those cut it.
type KernelCounts struct {
	Shells   int64 // grid shells visited
	Gathered int64 // points whose distance to the site was measured
	Sorted   int64 // of those, inside the cutting range at shell entry
	Tested   int64 // bisector planes tested against the cell
	Cut      int64 // planes that changed the cell
}

// Add accumulates o into k.
func (k *KernelCounts) Add(o KernelCounts) {
	k.Shells += o.Shells
	k.Gathered += o.Gathered
	k.Sorted += o.Sorted
	k.Tested += o.Tested
	k.Cut += o.Cut
}

// TakeCounts returns the funnel counts accumulated since the previous call
// and resets them.
func (s *Scratch) TakeCounts() KernelCounts {
	k := s.counts
	s.counts = KernelCounts{}
	return k
}

type faceMeta struct {
	neighbor   int64
	start, end int
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// addCut records vi as lying on the cut plane, ignoring duplicates. The
// linear scan is cheap: a convex cross-section has tens of vertices at
// most, and discovery order keeps the result deterministic (the map the
// scan replaces iterated in random order).
func (s *Scratch) addCut(vi int) {
	for _, x := range s.cut {
		if x == vi {
			return
		}
	}
	s.cut = append(s.cut, vi)
}

// orderLoop sorts idx in place into a loop counterclockwise when viewed
// from the +normal side (outward Newell normal along +normal), using the
// scratch angle buffer. It is the allocation-free replacement for the old
// orderConvexLoop helper.
func (s *Scratch) orderLoop(verts []geom.Vec3, idx []int, normal geom.Vec3) {
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
	// Insertion sort of (angle, index) pairs: cut loops are small, and the
	// stable in-place sort avoids the sort.Slice closure allocation.
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
