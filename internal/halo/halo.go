// Package halo implements a friends-of-friends (FOF) halo finder, one of
// the level-1 analysis tools of the paper's in situ cosmology framework
// (Fig. 4 lists halo finders alongside the Voronoi tessellation; Woodring
// et al. 2010 describe the ParaView halo-finding pipeline the framework
// wraps). Two particles are friends when they lie within the linking
// length b of each other (minimum-image distance in the periodic box);
// halos are the transitive closures with at least MinMembers particles.
package halo

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/cosmo"
	"repro/internal/geom"
)

// Config controls the finder.
type Config struct {
	// BoxSize is the periodic box side.
	BoxSize float64
	// LinkingLength is the FOF linking length b, in absolute units (the
	// cosmology convention of b = 0.2 x mean interparticle spacing is the
	// usual choice).
	LinkingLength float64
	// MinMembers is the minimum particle count for a group to be reported
	// as a halo (smaller groups are field particles). Defaults to 10.
	MinMembers int
}

// Halo is one friends-of-friends group.
type Halo struct {
	// Members are the indices of the particles in the group.
	Members []int
	// Center is the periodic-aware center of mass.
	Center geom.Vec3
	// Radius is the RMS member distance from the center (minimum image).
	Radius float64
}

// Mass returns the halo mass in particle counts (unit masses).
func (h *Halo) Mass() int { return len(h.Members) }

// Find runs FOF over the particle positions and returns halos sorted by
// decreasing mass.
func Find(pos []geom.Vec3, cfg Config) ([]Halo, error) {
	if cfg.BoxSize <= 0 {
		return nil, fmt.Errorf("halo: non-positive box size %g", cfg.BoxSize)
	}
	if cfg.LinkingLength <= 0 {
		return nil, fmt.Errorf("halo: non-positive linking length %g", cfg.LinkingLength)
	}
	if cfg.LinkingLength*2 > cfg.BoxSize {
		return nil, fmt.Errorf("halo: linking length %g too large for box %g", cfg.LinkingLength, cfg.BoxSize)
	}
	minMembers := cfg.MinMembers
	if minMembers <= 0 {
		minMembers = 10
	}

	// Grid buckets with cell size >= b: friends are always in the same or
	// an adjacent (periodic) cell.
	n := int(cfg.BoxSize / cfg.LinkingLength)
	if n < 1 {
		n = 1
	}
	if n > 256 {
		n = 256
	}
	cell := cfg.BoxSize / float64(n)
	bucketOf := func(p geom.Vec3) (int, int, int) {
		f := func(x float64) int {
			i := int(x / cell)
			if i >= n {
				i = n - 1
			}
			if i < 0 {
				i = 0
			}
			return i
		}
		return f(p.X), f(p.Y), f(p.Z)
	}
	buckets := make([][]int32, n*n*n)
	for i, p := range pos {
		bx, by, bz := bucketOf(p)
		bi := (bz*n+by)*n + bx
		buckets[bi] = append(buckets[bi], int32(i))
	}

	parent := make([]int32, len(pos))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	b2 := cfg.LinkingLength * cfg.LinkingLength
	for bz := 0; bz < n; bz++ {
		for by := 0; by < n; by++ {
			for bx := 0; bx < n; bx++ {
				home := buckets[(bz*n+by)*n+bx]
				if len(home) == 0 {
					continue
				}
				// Pairs within the home bucket.
				for i := 0; i < len(home); i++ {
					for j := i + 1; j < len(home); j++ {
						if cosmo.MinImage(pos[home[i]], pos[home[j]], cfg.BoxSize).Norm2() <= b2 {
							union(home[i], home[j])
						}
					}
				}
				// Pairs against half the neighbor cells (the other half is
				// covered from the neighbor's side).
				for _, d := range halfNeighborhood {
					nx := ((bx+d[0])%n + n) % n
					ny := ((by+d[1])%n + n) % n
					nz := ((bz+d[2])%n + n) % n
					other := buckets[(nz*n+ny)*n+nx]
					for _, a := range home {
						for _, c := range other {
							if cosmo.MinImage(pos[a], pos[c], cfg.BoxSize).Norm2() <= b2 {
								union(a, c)
							}
						}
					}
				}
			}
		}
	}

	groups := map[int32][]int{}
	for i := range pos {
		r := find(int32(i))
		groups[r] = append(groups[r], i)
	}
	var halos []Halo
	for _, r := range slices.Sorted(maps.Keys(groups)) {
		members := groups[r]
		if len(members) < minMembers {
			continue
		}
		halos = append(halos, summarize(pos, members, cfg.BoxSize))
	}
	sort.Slice(halos, func(i, j int) bool {
		if len(halos[i].Members) != len(halos[j].Members) {
			return len(halos[i].Members) > len(halos[j].Members)
		}
		return halos[i].Members[0] < halos[j].Members[0]
	})
	return halos, nil
}

// halfNeighborhood is the 13 of the 26 neighbor offsets that, together
// with each cell's own pairs, cover every adjacent-cell pair exactly once.
var halfNeighborhood = [13][3]int{
	{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
	{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1},
	{0, 1, 1}, {0, 1, -1},
	{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
}

// summarize computes the periodic-aware center and radius of a group:
// member positions are unwrapped relative to the first member before
// averaging, then the center is wrapped back into the box.
func summarize(pos []geom.Vec3, members []int, L float64) Halo {
	sort.Ints(members)
	ref := pos[members[0]]
	var sum geom.Vec3
	for _, mi := range members {
		sum = sum.Add(ref.Add(cosmo.MinImage(ref, pos[mi], L)))
	}
	center := sum.Scale(1 / float64(len(members)))
	var r2 float64
	for _, mi := range members {
		r2 += cosmo.MinImage(center, pos[mi], L).Norm2()
	}
	return Halo{
		Members: members,
		Center:  cosmo.Wrap(center, L),
		Radius:  math.Sqrt(r2 / float64(len(members))),
	}
}
