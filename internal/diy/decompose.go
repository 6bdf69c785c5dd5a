// Package diy is the block-parallel data-movement substrate standing in for
// the DIY library the paper builds on (Peterka et al., LDAV 2011). It
// provides the three features tess needs:
//
//   - block decomposition of the simulation domain: a regular grid with a
//     near-cubic factorization of the rank count, or particle-balanced
//     recursive coordinate bisection (rcb.go), both held as one split tree
//     whose leaves are the blocks and which one walk locates points in;
//   - neighborhood exchange with periodic boundary neighbors and *targeted*
//     particle exchange — a particle is sent only to those blocks whose
//     ghost-expanded region contains it, with coordinates transformed when
//     the destination is across a periodic boundary (the two features the
//     paper added to DIY, Sec. III-C1). Blocks link by box adjacency at the
//     exchange's own ghost, whatever cut them: below the smallest block side
//     a grid's links are exactly its 26-connected (face, edge, corner)
//     neighbourhood, and a wider ghost reaches the blocks beyond it;
//   - collective block I/O into a single file with a footer index
//     (Sec. III-C2's storage layer).
package diy

import (
	"fmt"

	"repro/internal/geom"
)

// Block is one rank's rectangular piece of the global domain.
type Block struct {
	// Rank is the owning rank, equal to the block's index.
	Rank int
	// Bounds is the block's region of the global domain (half-open on the
	// high side by convention: a particle belongs to the block whose bounds
	// contain it with Min <= p < Max).
	Bounds geom.Box
}

// Decomposition is a partition of a rectangular domain into blocks, held
// as a binary split tree whose leaves are the blocks. Both kinds are the
// same tree: a regular grid (Decompose) cuts at the grid planes
// Domain.Min + i·step, and recursive coordinate bisection (DecomposeRCB)
// at particle medians. Children share their cut bit for bit and inherit
// every other face from the parent, outer faces from the domain itself, so
// the leaves tile the domain with no roundoff gap or overlap, and one tree
// walk (Locate) finds the owner of a point for either kind. It holds no
// link state: each Exchanger derives its rank's links at its own ghost.
type Decomposition struct {
	Domain   geom.Box
	Periodic bool
	blocks   []Block     // the leaves, in rank order
	nodes    []splitNode // interior nodes in pre-order
	root     int32
	grid     bool // rebuilt from Domain and n alone, so Cuts reports none
}

// splitNode is one interior node of the split tree. Children are node
// indices; a negative child c encodes the leaf block rank ^c.
type splitNode struct {
	axis        int
	split       float64
	left, right int32
}

// newDecomposition validates a decomposition of domain into n blocks and
// returns it with an empty tree, for Decompose, DecomposeRCB and ReplayRCB.
func newDecomposition(domain geom.Box, n int, periodic bool) (*Decomposition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("diy: cannot decompose into %d blocks", n)
	}
	if domain.Empty() {
		return nil, fmt.Errorf("diy: empty domain %+v", domain)
	}
	return &Decomposition{Domain: domain, Periodic: periodic,
		blocks: make([]Block, 0, n), nodes: make([]splitNode, 0, n-1)}, nil
}

// leaf appends box as the next rank's block and returns its reference.
func (d *Decomposition) leaf(box geom.Box) int32 {
	rank := len(d.blocks)
	d.blocks = append(d.blocks, Block{Rank: rank, Bounds: box})
	return int32(^rank)
}

// split appends the interior node cutting box at coordinate at along axis
// and returns its index and the two child boxes; the caller links the
// children's references once it has built them.
func (d *Decomposition) split(box geom.Box, axis int, at float64) (idx int32, left, right geom.Box) {
	d.nodes = append(d.nodes, splitNode{axis: axis, split: at})
	left, right = box, box
	switch axis {
	case 0:
		left.Max.X, right.Min.X = at, at
	case 1:
		left.Max.Y, right.Min.Y = at, at
	default:
		left.Max.Z, right.Min.Z = at, at
	}
	return int32(len(d.nodes) - 1), left, right
}

// Decompose partitions domain into n blocks arranged in a grid chosen to
// minimize per-block surface area (near-cubic blocks for a cubic domain).
// Ranks run x-fastest. It returns an error if n <= 0.
func Decompose(domain geom.Box, n int, periodic bool) (*Decomposition, error) {
	d, err := newDecomposition(domain, n, periodic)
	if err != nil {
		return nil, err
	}
	d.grid = true
	size := domain.Size()
	dims := factor3(n, size)
	step := geom.V(size.X/float64(dims[0]), size.Y/float64(dims[1]), size.Z/float64(dims[2]))
	d.root = d.buildGrid(domain, [3]int{}, dims, step)
	return d, nil
}

// buildGrid builds the subtree of box, the grid cells lo..hi-1 on every
// axis. It halves the z index range until one slab is left, then y, then
// x, so the leaves (ranks) come out x-fastest, and every cut is the grid
// plane Domain.Min + i·step.
func (d *Decomposition) buildGrid(box geom.Box, lo, hi [3]int, step geom.Vec3) int32 {
	for a := 2; a >= 0; a-- {
		if hi[a]-lo[a] == 1 {
			continue
		}
		mid := (lo[a] + hi[a]) / 2
		idx, leftBox, rightBox := d.split(box, a, d.Domain.Min.Component(a)+float64(mid)*step.Component(a))
		leftHi, rightLo := hi, lo
		leftHi[a], rightLo[a] = mid, mid
		left := d.buildGrid(leftBox, lo, leftHi, step)
		right := d.buildGrid(rightBox, rightLo, hi, step)
		d.nodes[idx].left, d.nodes[idx].right = left, right
		return idx
	}
	return d.leaf(box)
}

// factor3 factors n into per-axis block counts minimizing the surface area
// of a block for a domain with the given edge lengths — surface area is
// what the ghost exchange pays for, and for anisotropic domains (or prime
// n, where the only factorization is a slab) the orientation matters: 7
// blocks in a 100x10x10 domain must slab the long axis, not produce
// 1x1x7 slivers. All orientations of every factor triple are scored; ties
// keep the first candidate in descending-x enumeration order, so cubic
// domains get the traditional largest-count-first layout.
func factor3(n int, size geom.Vec3) [3]int {
	best := [3]int{n, 1, 1}
	bestScore := score3(best, size)
	for dx := n; dx >= 1; dx-- {
		if n%dx != 0 {
			continue
		}
		m := n / dx
		for dy := m; dy >= 1; dy-- {
			if m%dy != 0 {
				continue
			}
			cand := [3]int{dx, dy, m / dy}
			if s := score3(cand, size); s < bestScore {
				best, bestScore = cand, s
			}
		}
	}
	return best
}

// score3 orders factorizations by the surface area of one block when the
// domain of the given size is cut into f[0]*f[1]*f[2] blocks. The value is
// the area scaled by the constant f[0]*f[1]*f[2] (= n): written this way
// each face term is one product with no division, so permutations of the
// same factors score *exactly* equal on symmetric domains and the
// enumeration-order tie-break stays deterministic (plain sx*sy+sy*sz+sz*sx
// ties only up to float addition order).
func score3(f [3]int, size geom.Vec3) float64 {
	return size.X*size.Y*float64(f[2]) +
		size.Y*size.Z*float64(f[0]) +
		size.Z*size.X*float64(f[1])
}

// NumBlocks returns the total block count.
func (d *Decomposition) NumBlocks() int { return len(d.blocks) }

// Block returns the block owned by rank.
func (d *Decomposition) Block(rank int) Block { return d.blocks[rank] }

// Locate returns the rank of the block containing point p, which must lie
// inside the domain, by one walk of the split tree. A point exactly on a cut
// descends right, preserving the half-open Min <= p < Max ownership, so a
// point on the domain's high face lands in the last block along that axis.
func (d *Decomposition) Locate(p geom.Vec3) int {
	ref := d.root
	for ref >= 0 {
		nd := &d.nodes[ref]
		if p.Component(nd.axis) < nd.split {
			ref = nd.left
		} else {
			ref = nd.right
		}
	}
	return int(^ref)
}
