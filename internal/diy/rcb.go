package diy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Recursive coordinate bisection (RCB) decomposition: instead of the regular
// grid's equal-volume blocks, the domain is split recursively along the
// longest axis of each region at the weighted median of the particle
// positions, so every leaf block holds an approximately equal share of the
// particles. This is the particle-balancing strategy PARAVT uses for
// parallel Voronoi at scale: on clustered (evolved N-body) inputs the
// regular grid concentrates most of the compute phase in a few halo-heavy
// blocks while void blocks idle, and balancing counts instead of volume is
// what restores strong scaling.
//
// The tree is the Decomposition's own split tree, the one a regular grid
// is held in too: children share the split coordinate bit-for-bit and outer
// faces are inherited from the parent, so the leaves exactly tile the
// domain, and Locate's walk keeps the half-open Min <= p < Max ownership (a
// point exactly at a split plane descends right). Every Exchanger derives
// its rank's links by box adjacency at its own ghost (see links in
// exchange.go), whatever cut the blocks. The ghost DecomposeRCB takes only
// checks the single-wrap bound.

// DecomposeRCB partitions domain into n blocks holding approximately equal
// particle counts, via recursive coordinate bisection of the particle
// positions. Particle positions must lie within the domain. ghost only
// feeds the single-wrap check: for a periodic domain it must not exceed
// half the smallest domain side, since links use single-wrap periodic
// images, the same regime in which a periodic tessellation is well defined.
// The links themselves are each Exchanger's, at its own ghost.
func DecomposeRCB(domain geom.Box, n int, periodic bool, particles []Particle, ghost float64) (*Decomposition, error) {
	// The builder partitions a scratch copy of the positions in place; the
	// caller's slice is never reordered.
	pts := make([]geom.Vec3, len(particles))
	for i, p := range particles {
		pts[i] = p.Pos
	}
	return newRCB(domain, n, periodic, ghost, pts, rcbSplit)
}

// ReplayRCB rebuilds the RCB decomposition whose split coordinates are
// cuts, in the pre-order Cuts lists them: DecomposeRCB's own tree walk,
// with each median replaced by the next recorded cut.
// Replaying DecomposeRCB(domain, n, periodic, ps, ghost).Cuts() under the
// same domain, n, periodicity and ghost therefore yields the identical
// decomposition, bit for bit. cuts must hold n-1 entries, each strictly
// inside the box its node splits, on that box's longest axis.
func ReplayRCB(domain geom.Box, n int, periodic bool, cuts []float64, ghost float64) (*Decomposition, error) {
	if n > 0 && len(cuts) != n-1 {
		return nil, fmt.Errorf("diy: %d RCB cuts for %d blocks, want %d", len(cuts), n, n-1)
	}
	next := 0
	return newRCB(domain, n, periodic, ghost, nil, func(geom.Box, int, []geom.Vec3, int, int) float64 {
		next++
		return cuts[next-1]
	})
}

// Cuts returns an RCB decomposition's split coordinates in pre-order, the
// list ReplayRCB rebuilds it from. A regular grid has none.
func (d *Decomposition) Cuts() []float64 {
	if d.grid {
		return nil
	}
	cuts := make([]float64, len(d.nodes))
	for i, nd := range d.nodes {
		cuts[i] = nd.split
	}
	return cuts
}

// cutter chooses the split coordinate of one interior node: where box is
// cut along axis so that kl of its k leaves lie below, given the node's
// points.
type cutter func(box geom.Box, axis int, pts []geom.Vec3, kl, k int) float64

// newRCB is DecomposeRCB and ReplayRCB: validate, then build the tree with
// cut choosing every split.
func newRCB(domain geom.Box, n int, periodic bool, ghost float64, pts []geom.Vec3, cut cutter) (*Decomposition, error) {
	d, err := newDecomposition(domain, n, periodic)
	if err != nil {
		return nil, err
	}
	if periodic {
		size := domain.Size()
		minSide := math.Min(size.X, math.Min(size.Y, size.Z))
		if ghost > minSide/2 {
			return nil, fmt.Errorf("diy: RCB ghost %g exceeds half the smallest domain side %g "+
				"(single-wrap periodic links cannot reach farther)", ghost, minSide/2)
		}
	}
	if d.root, err = buildRCBTree(d, domain, n, pts, cut); err != nil {
		return nil, err
	}
	return d, nil
}

// buildRCBTree recursively splits box into k leaves over pts, appending
// blocks (rank = emission order, left subtree first) and interior nodes
// (pre-order) to d. It returns the node reference: non-negative for an
// interior node index, ^rank for a leaf. A cut that is not strictly inside
// box would leave an empty leaf, and is an error.
func buildRCBTree(d *Decomposition, box geom.Box, k int, pts []geom.Vec3, cut cutter) (int32, error) {
	if k == 1 {
		return d.leaf(box), nil
	}
	kl := k / 2
	axis := longestAxis(box)
	split := cut(box, axis, pts, kl, k)
	if lo, hi := box.Min.Component(axis), box.Max.Component(axis); !(split > lo && split < hi) {
		return 0, fmt.Errorf("diy: RCB cut %d at %g is not inside (%g, %g) on axis %d", len(d.nodes), split, lo, hi, axis)
	}

	// Partition pts around the split plane (p < split goes left). A stable
	// partition is unnecessary: every later split re-sorts its own axis.
	i, j := 0, len(pts)
	for i < j {
		if pts[i].Component(axis) < split {
			i++
		} else {
			j--
			pts[i], pts[j] = pts[j], pts[i]
		}
	}

	idx, leftBox, rightBox := d.split(box, axis, split)
	left, err := buildRCBTree(d, leftBox, kl, pts[:i], cut)
	if err != nil {
		return 0, err
	}
	right, err := buildRCBTree(d, rightBox, k-kl, pts[i:], cut)
	if err != nil {
		return 0, err
	}
	d.nodes[idx].left, d.nodes[idx].right = left, right
	return idx, nil
}

// longestAxis returns the axis index of the box's longest side.
func longestAxis(box geom.Box) int {
	s := box.Size()
	axis, longest := 0, s.X
	if s.Y > longest {
		axis, longest = 1, s.Y
	}
	if s.Z > longest {
		axis = 2
	}
	return axis
}

// rcbSplit chooses the split coordinate along axis that sends a kl/k share
// of pts to the left child (the weighted median). Ties on the split
// coordinate are broken toward the nearest achievable boundary; with no
// particles (or all coordinates equal) the split falls back to the
// geometric kl/k fraction of the box.
func rcbSplit(box geom.Box, axis int, pts []geom.Vec3, kl, k int) float64 {
	lo, hi := box.Min.Component(axis), box.Max.Component(axis)
	geomSplit := lo + (hi-lo)*float64(kl)/float64(k)
	if len(pts) == 0 {
		return geomSplit
	}
	cs := make([]float64, len(pts))
	for i, p := range pts {
		cs[i] = p.Component(axis)
	}
	sort.Float64s(cs)
	target := float64(len(cs)) * float64(kl) / float64(k)

	// Candidate boundaries sit between consecutive distinct coordinate
	// values; pick the one whose left count is closest to the target.
	best, bestCount, found := 0.0, 0, false
	for i := 1; i < len(cs); i++ {
		if cs[i] == cs[i-1] {
			continue
		}
		mid := cs[i-1] + (cs[i]-cs[i-1])/2
		if mid <= cs[i-1] {
			// The gap is a single ulp and the midpoint rounded down; the
			// right value itself is a valid plane (points equal to it go
			// right).
			mid = cs[i]
		}
		if !(mid > lo && mid < hi) {
			continue
		}
		if !found || math.Abs(float64(i)-target) < math.Abs(float64(bestCount)-target) {
			best, bestCount, found = mid, i, true
		}
	}
	if found {
		return best
	}
	// All coordinates equal (or every boundary degenerate): split the box
	// geometrically; counts follow the strict comparison.
	if geomSplit > lo && geomSplit < hi {
		return geomSplit
	}
	return lo + (hi-lo)/2
}
