package voronoi

import "repro/internal/geom"

// Scratch owns the reusable working storage for allocation-free cell
// construction. The clipping kernel allocates nothing once a Scratch's
// buffers have grown to the working-set size, which is what makes
// per-thread cell computation cheap (the multithreaded Voro++ design:
// one reusable cell/scratch per worker, many cells through it).
//
// A Scratch is NOT safe for concurrent use; give each worker goroutine its
// own. The cell under construction lives in the scratch's sweep and is
// copied out once, when it is finished, so returned cells never alias the
// sweep: ComputeCellScratch and ComputeCellPooled cells own their storage
// or the pool's, and ComputeCellReused's cell lives in the single-cell
// storage below until the next cell through the Scratch.
type Scratch struct {
	sw sweep

	// Reusable buffer for the clipping sweep's candidate stream.
	cands []candidate

	// The single-cell storage ComputeCellReused finishes into.
	cell  Cell
	verts []geom.Vec3
	faces []Face
	loops []int

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
	Culled   int64 // cells whose sweep stopped at a proven early cull
}

// Add accumulates o into k.
func (k *KernelCounts) Add(o KernelCounts) {
	k.Shells += o.Shells
	k.Gathered += o.Gathered
	k.Sorted += o.Sorted
	k.Tested += o.Tested
	k.Cut += o.Cut
	k.Culled += o.Culled
}

// TakeCounts returns the funnel counts accumulated since the previous call
// and resets them.
func (s *Scratch) TakeCounts() KernelCounts {
	k := s.counts
	s.counts = KernelCounts{}
	return k
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }
