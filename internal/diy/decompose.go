// Package diy is the block-parallel data-movement substrate standing in for
// the DIY library the paper builds on (Peterka et al., LDAV 2011). It
// provides the three features tess needs:
//
//   - regular block decomposition of the periodic simulation domain, with a
//     near-cubic factorization of the rank count;
//   - neighborhood exchange over the 26-connected (face, edge, corner) block
//     graph with periodic boundary neighbors and *targeted* particle
//     exchange — a particle is sent only to those neighbors whose
//     ghost-expanded region contains it, with coordinates transformed when
//     the destination is across a periodic boundary (the two features the
//     paper added to DIY, Sec. III-C1);
//   - collective block I/O into a single file with a footer index
//     (Sec. III-C2's storage layer).
package diy

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Block is one rank's rectangular piece of the global domain.
type Block struct {
	// Rank is the owning rank, equal to the block's index.
	Rank int
	// Coords is the block's integer position in the block grid.
	Coords [3]int
	// Bounds is the block's region of the global domain (half-open on the
	// high side by convention: a particle belongs to the block whose bounds
	// contain it with Min <= p < Max).
	Bounds geom.Box
}

// Decomposition is a partition of a rectangular domain into blocks: either
// a regular Dims[0]*Dims[1]*Dims[2] grid (Decompose) or a
// particle-balanced recursive-bisection tree (DecomposeRCB, in which case
// Dims is zero and the grid-coordinate methods do not apply).
type Decomposition struct {
	Domain   geom.Box
	Dims     [3]int
	Periodic bool
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
	d := &Decomposition{Domain: domain, Dims: dims, Periodic: periodic}
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
					Coords: [3]int{i, j, k},
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

// GhostCapacity returns the largest ghost distance a regular grid's
// neighborhood links support: its smallest block side, beyond which a
// ghost region outruns the 26-neighborhood. (An RCB decomposition's links
// reach exactly the ghost it was built for.)
func (d *Decomposition) GhostCapacity() float64 {
	m := math.Inf(1)
	for _, b := range d.blocks {
		s := b.Bounds.Size()
		m = math.Min(m, math.Min(s.X, math.Min(s.Y, s.Z)))
	}
	return m
}

// RankAt returns the rank owning grid coordinates (i, j, k), applying
// periodic wrap when the decomposition is periodic. Out-of-range
// coordinates on a non-periodic decomposition return -1. RCB
// decompositions have no block grid; RankAt returns -1 for them.
func (d *Decomposition) RankAt(i, j, k int) int {
	if d.rcb != nil {
		return -1
	}
	c := [3]int{i, j, k}
	for a := 0; a < 3; a++ {
		if c[a] < 0 || c[a] >= d.Dims[a] {
			if !d.Periodic {
				return -1
			}
			c[a] = ((c[a] % d.Dims[a]) + d.Dims[a]) % d.Dims[a]
		}
	}
	return (c[2]*d.Dims[1]+c[1])*d.Dims[0] + c[0]
}

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
		i := int(frac * float64(d.Dims[a]))
		if i < 0 {
			i = 0
		}
		if i >= d.Dims[a] {
			i = d.Dims[a] - 1
		}
		c[a] = i
	}
	// Roundoff near internal boundaries: verify containment and nudge.
	for a := 0; a < 3; a++ {
		b := d.blocks[(c[2]*d.Dims[1]+c[1])*d.Dims[0]+c[0]]
		x := p.Component(a)
		if x < b.Bounds.Min.Component(a) && c[a] > 0 {
			c[a]--
		} else if x >= b.Bounds.Max.Component(a) && c[a] < d.Dims[a]-1 {
			c[a]++
		}
	}
	return (c[2]*d.Dims[1]+c[1])*d.Dims[0] + c[0]
}

// Neighbor is a link from one block to an adjacent block (including
// diagonal and periodic links).
type Neighbor struct {
	// Rank of the adjacent block.
	Rank int
	// Dir is the grid offset (-1, 0, +1 per dimension, not all zero).
	Dir [3]int
	// Shift is the coordinate translation to apply to a particle when
	// sending it to this neighbor: nonzero only across periodic wraps.
	Shift geom.Vec3
	// Periodic reports whether this link wraps around the domain.
	Periodic bool
}

// Neighbors returns the neighborhood links of rank. For a regular grid
// these are the up-to-26 coordinate neighbors: with periodic boundaries
// every block has exactly 26 links (some may reference the same rank when
// the block grid is thin — e.g. 2 blocks per dimension — or even the block
// itself for a 1-block dimension; tess relies on the Shift of each link,
// so duplicates with distinct shifts are preserved). For an RCB
// decomposition they are the precomputed box-adjacency links (see
// DecomposeRCB), returned in deterministic ascending-rank order.
func (d *Decomposition) Neighbors(rank int) []Neighbor {
	if d.rcb != nil {
		return d.rcb.links[rank]
	}
	b := d.blocks[rank]
	size := d.Domain.Size()
	var out []Neighbor
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				ci := b.Coords[0] + dx
				cj := b.Coords[1] + dy
				ck := b.Coords[2] + dz
				nr := d.RankAt(ci, cj, ck)
				if nr < 0 {
					continue
				}
				var shift geom.Vec3
				periodic := false
				if ci < 0 {
					shift.X += size.X
					periodic = true
				}
				if ci >= d.Dims[0] {
					shift.X -= size.X
					periodic = true
				}
				if cj < 0 {
					shift.Y += size.Y
					periodic = true
				}
				if cj >= d.Dims[1] {
					shift.Y -= size.Y
					periodic = true
				}
				if ck < 0 {
					shift.Z += size.Z
					periodic = true
				}
				if ck >= d.Dims[2] {
					shift.Z -= size.Z
					periodic = true
				}
				out = append(out, Neighbor{Rank: nr, Dir: [3]int{dx, dy, dz}, Shift: shift, Periodic: periodic})
			}
		}
	}
	return out
}
