package voids

import (
	"fmt"
	"slices"
	"sort"
)

// Watershed void finding in the style of ZOBOV (Neyrinck 2008) and the
// Watershed Void Finder (Platen, van de Weygaert & Jones 2007), the
// paper's Sec. II-A lineage: instead of a single global volume threshold
// (Threshold + ConnectedComponents), the density field implied by the
// Voronoi cells is segmented into *zones* — basins of steepest descent
// toward local density minima — and zones are then merged into voids up to
// a density barrier ("filling a landscape with water, with the valleys
// acting as voids and the ridges between valleys as filaments and walls").

// Zone is one catchment basin of the density field.
type Zone struct {
	// Core is the cell ID of the zone's density minimum.
	Core int64
	// CellIDs are the member cells (sorted).
	CellIDs []int64
	// CoreDensity is the density (1/volume) at the core.
	CoreDensity float64
	// Volume is the total member cell volume.
	Volume float64
}

// Watershed segments the cells into zones: every cell descends to its
// lowest-density neighbor until it reaches a local minimum (a cell denser
// than all its surviving neighbors is its own zone core when isolated).
// Cells listed in recs but absent from the adjacency of others are
// permitted; wall faces are ignored. Zones are returned sorted by
// decreasing volume.
func Watershed(recs []CellRecord) ([]Zone, error) {
	ix, dup := newIDIndex(recs)
	if dup >= 0 {
		return nil, fmt.Errorf("voids: duplicate cell ID %d", recs[dup].ID)
	}
	density := densityOf(recs, ix)

	// Every cell descends to the neighbor with the lowest density, if lower
	// than its own, a tie going to the smaller ID. Each step lowers
	// (density, ID), so a descent tree is a zone, rooted at its one core.
	u := newUnionFind(len(ix.ids))
	core := make([]bool, len(ix.ids))
	for p, r := range ix.rec {
		sink, sinkD := p, density(p)
		for _, nb := range recs[r].Neighbors {
			if q := ix.find(nb); q >= 0 {
				if d := density(q); d < sinkD || (d == sinkD && q < sink) {
					sink, sinkD = q, d
				}
			}
		}
		core[p] = sink == p
		u.union(p, sink)
	}

	members, bounds := groups(u)
	ids := make([]int64, len(members))
	zones := make([]Zone, 0, len(bounds)-1)
	for g := range len(bounds) - 1 {
		lo, hi := bounds[g], bounds[g+1]
		z := Zone{CellIDs: ids[lo:hi:hi]}
		for i, p := range members[lo:hi] {
			ids[lo+i] = ix.ids[p]
			z.Volume += recs[ix.rec[p]].Volume
			if core[p] {
				z.Core, z.CoreDensity = ix.ids[p], density(p)
			}
		}
		zones = append(zones, z)
	}
	sort.Slice(zones, func(a, b int) bool {
		if zones[a].Volume != zones[b].Volume {
			return zones[a].Volume > zones[b].Volume
		}
		return zones[a].Core < zones[b].Core
	})
	return zones, nil
}

// densityOf returns the density (1/volume, or 0 for a nonpositive volume)
// of the cell at each index position.
func densityOf(recs []CellRecord, ix idIndex) func(p int) float64 {
	return func(p int) float64 {
		if v := recs[ix.rec[p]].Volume; v > 0 {
			return 1 / v
		}
		return 0
	}
}

// WatershedVoid is a void grown from a zone by flooding: neighboring zones
// are merged while the density on the ridge between them stays below the
// barrier.
type WatershedVoid struct {
	// Zones are the merged zone cores.
	Zones []int64
	// CellIDs are all member cells (sorted).
	CellIDs []int64
	// Volume is the total volume.
	Volume float64
}

// FloodZones merges zones into voids: two zones join when some pair of
// adjacent cells across their shared ridge both have density below
// barrier. This is the watershed transform's flooding level; barrier = 0
// returns the zones unmerged. The zones are Watershed's for recs. Voids
// are sorted by decreasing volume.
func FloodZones(recs []CellRecord, zones []Zone, barrier float64) []WatershedVoid {
	ix, _ := newIDIndex(recs)
	density := densityOf(recs, ix)
	zoneOf := make([]int, len(ix.ids)) // 1 + the index of a cell's zone, 0 for none
	for zi, z := range zones {
		for _, id := range z.CellIDs {
			if p := ix.find(id); p >= 0 {
				zoneOf[p] = zi + 1
			}
		}
	}

	u := newUnionFind(len(zones))
	if barrier > 0 {
		for p, r := range ix.rec {
			za := zoneOf[p]
			if za == 0 || density(p) >= barrier {
				continue
			}
			for _, nb := range recs[r].Neighbors {
				if q := ix.find(nb); q >= 0 && zoneOf[q] != 0 && density(q) < barrier {
					u.union(za-1, zoneOf[q]-1)
				}
			}
		}
	}

	members, bounds := groups(u)
	out := make([]WatershedVoid, 0, len(bounds)-1)
	for g := range len(bounds) - 1 {
		var v WatershedVoid
		for _, zi := range members[bounds[g]:bounds[g+1]] {
			v.Zones = append(v.Zones, zones[zi].Core)
			v.CellIDs = append(v.CellIDs, zones[zi].CellIDs...)
			v.Volume += zones[zi].Volume
		}
		slices.Sort(v.Zones)
		slices.Sort(v.CellIDs)
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Volume != out[b].Volume {
			return out[a].Volume > out[b].Volume
		}
		return out[a].Zones[0] < out[b].Zones[0]
	})
	return out
}
