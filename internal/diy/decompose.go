// Package diy is the block-parallel data-movement substrate standing in for
// the DIY library the paper builds on (Peterka et al., LDAV 2011). It
// provides the three features tess needs:
//
//   - block decomposition of the simulation domain: a regular grid with a
//     near-cubic factorization of the rank count, or particle-balanced
//     recursive coordinate bisection (rcb.go);
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

// Decomposition is a partition of a rectangular domain into blocks: either
// a regular dims[0]*dims[1]*dims[2] grid (Decompose) or a
// particle-balanced recursive-bisection tree (DecomposeRCB). It holds no
// link state: each Exchanger derives its rank's links at its own ghost.
type Decomposition struct {
	Domain   geom.Box
	Periodic bool
	dims     [3]int // grid only
	blocks   []Block
	rcb      *rcbState
}

// Decompose partitions domain into n blocks arranged in a grid chosen to
// minimize per-block surface area (near-cubic blocks for a cubic domain).
// It returns an error if n <= 0.
func Decompose(domain geom.Box, n int, periodic bool) (*Decomposition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("diy: cannot decompose into %d blocks", n)
	}
	if domain.Empty() {
		return nil, fmt.Errorf("diy: empty domain %+v", domain)
	}
	dims := factor3(n, domain.Size())
	d := &Decomposition{Domain: domain, Periodic: periodic, dims: dims}
	size := domain.Size()
	step := geom.Vec3{
		X: size.X / float64(dims[0]),
		Y: size.Y / float64(dims[1]),
		Z: size.Z / float64(dims[2]),
	}
	d.blocks = make([]Block, 0, n)
	for k := 0; k < dims[2]; k++ {
		for j := 0; j < dims[1]; j++ {
			for i := 0; i < dims[0]; i++ {
				min := geom.Vec3{
					X: domain.Min.X + float64(i)*step.X,
					Y: domain.Min.Y + float64(j)*step.Y,
					Z: domain.Min.Z + float64(k)*step.Z,
				}
				max := geom.Vec3{
					X: domain.Min.X + float64(i+1)*step.X,
					Y: domain.Min.Y + float64(j+1)*step.Y,
					Z: domain.Min.Z + float64(k+1)*step.Z,
				}
				// Snap the outer faces to the exact domain boundary so
				// roundoff cannot leave gaps.
				if i == dims[0]-1 {
					max.X = domain.Max.X
				}
				if j == dims[1]-1 {
					max.Y = domain.Max.Y
				}
				if k == dims[2]-1 {
					max.Z = domain.Max.Z
				}
				d.blocks = append(d.blocks, Block{
					Rank:   len(d.blocks),
					Bounds: geom.Box{Min: min, Max: max},
				})
			}
		}
	}
	return d, nil
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
// inside the domain (points exactly on the high boundary are assigned to
// the last block in that dimension).
func (d *Decomposition) Locate(p geom.Vec3) int {
	if d.rcb != nil {
		return d.locateRCB(p)
	}
	size := d.Domain.Size()
	var c [3]int
	for a := 0; a < 3; a++ {
		frac := (p.Component(a) - d.Domain.Min.Component(a)) / size.Component(a)
		i := int(frac * float64(d.dims[a]))
		if i < 0 {
			i = 0
		}
		if i >= d.dims[a] {
			i = d.dims[a] - 1
		}
		c[a] = i
	}
	// Roundoff near internal boundaries: verify containment and nudge.
	for a := 0; a < 3; a++ {
		b := d.blocks[(c[2]*d.dims[1]+c[1])*d.dims[0]+c[0]]
		x := p.Component(a)
		if x < b.Bounds.Min.Component(a) && c[a] > 0 {
			c[a]--
		} else if x >= b.Bounds.Max.Component(a) && c[a] < d.dims[a]-1 {
			c[a]++
		}
	}
	return (c[2]*d.dims[1]+c[1])*d.dims[0] + c[0]
}
