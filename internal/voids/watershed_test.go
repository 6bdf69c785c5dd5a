package voids_test

import (
	"math"
	"testing"

	"repro/internal/voids"
)

// mkChain builds a 1D chain of cells with prescribed volumes; neighbors
// are the chain links.
func mkChain(volumes ...float64) []voids.CellRecord {
	recs := make([]voids.CellRecord, len(volumes))
	for i, v := range volumes {
		recs[i] = voids.CellRecord{ID: int64(i), Volume: v}
		if i > 0 {
			recs[i].Neighbors = append(recs[i].Neighbors, int64(i-1))
		}
		if i < len(volumes)-1 {
			recs[i].Neighbors = append(recs[i].Neighbors, int64(i+1))
		}
	}
	return recs
}

func TestWatershedSingleBasin(t *testing.T) {
	// Monotone volumes: one minimum-density (max-volume) core at the end.
	recs := mkChain(1, 2, 3, 4, 5)
	zones, err := voids.Watershed(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 1 {
		t.Fatalf("zones = %d, want 1", len(zones))
	}
	if zones[0].Core != 4 {
		t.Errorf("core = %d, want 4 (largest cell)", zones[0].Core)
	}
	if len(zones[0].CellIDs) != 5 {
		t.Errorf("zone members = %d", len(zones[0].CellIDs))
	}
	if math.Abs(zones[0].Volume-15) > 1e-12 {
		t.Errorf("zone volume = %v", zones[0].Volume)
	}
	if math.Abs(zones[0].CoreDensity-0.2) > 1e-12 {
		t.Errorf("core density = %v", zones[0].CoreDensity)
	}
}

func TestWatershedTwoBasins(t *testing.T) {
	// Two valleys (large volumes at the ends) separated by a ridge (small
	// volume in the middle).
	recs := mkChain(5, 3, 1, 3.5, 6)
	zones, err := voids.Watershed(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 2 {
		t.Fatalf("zones = %d, want 2", len(zones))
	}
	// Largest-volume zone first.
	if zones[0].Core != 4 || zones[1].Core != 0 {
		t.Errorf("cores = %d, %d", zones[0].Core, zones[1].Core)
	}
	// The ridge cell (ID 2) descends to its less dense neighbor (ID 3,
	// density 1/3.5 < 1/3 of ID 1), landing in the right-hand zone.
	found := false
	for _, id := range zones[0].CellIDs {
		if id == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("ridge cell not in right basin: %+v", zones)
	}
}

func TestWatershedDuplicateIDs(t *testing.T) {
	recs := []voids.CellRecord{{ID: 1, Volume: 1}, {ID: 1, Volume: 2}}
	if _, err := voids.Watershed(recs); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestWatershedZonesPartition(t *testing.T) {
	// On a real tessellation, zones partition the cells exactly.
	recs := tessellate(t, 6, 6, 120, 4, 0)
	zones, err := voids.Watershed(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) == 0 {
		t.Fatal("no zones")
	}
	seen := map[int64]int{}
	var vol float64
	for _, z := range zones {
		vol += z.Volume
		for _, id := range z.CellIDs {
			seen[id]++
		}
	}
	if len(seen) != len(recs) {
		t.Fatalf("zones cover %d of %d cells", len(seen), len(recs))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d in %d zones", id, n)
		}
	}
	if math.Abs(vol-216) > 1e-6*216 {
		t.Errorf("zone volumes sum to %v, want 216", vol)
	}
	// Each zone core is a local density minimum among its surviving
	// neighbors within the record set.
	byID := map[int64]voids.CellRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	for _, z := range zones {
		core := byID[z.Core]
		for _, nb := range core.Neighbors {
			n, ok := byID[nb]
			if !ok {
				continue
			}
			if 1/n.Volume < 1/core.Volume {
				t.Fatalf("zone core %d is not a local minimum (neighbor %d is less dense)", z.Core, nb)
			}
		}
	}
}

func TestFloodZonesBarriers(t *testing.T) {
	// Two basins with a ridge: flooding merges them only once the barrier
	// exceeds the ridge saddle density.
	recs := mkChain(5, 3, 1, 3.5, 6)
	zones, err := voids.Watershed(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Barrier 0: zones unmerged.
	vs := voids.FloodZones(recs, zones, 0)
	if len(vs) != 2 {
		t.Fatalf("barrier 0: %d voids, want 2", len(vs))
	}
	// Barrier below the wall density (1/1 = 1) but above the basins'
	// boundary cells: the saddle pair spanning the zones is (1,2) or
	// (2,3); cell 2 has density 1. A barrier of 0.5 admits densities
	// < 0.5 only: cells 0 (0.2), 1 (0.333), 3 (0.286), 4 (0.167). The
	// zone boundary pair (1,2)/(2,3) includes cell 2 (density 1) -> no
	// merge.
	vs = voids.FloodZones(recs, zones, 0.5)
	if len(vs) != 2 {
		t.Fatalf("barrier 0.5: %d voids, want 2 (ridge not submerged)", len(vs))
	}
	// Barrier above the ridge density merges everything.
	vs = voids.FloodZones(recs, zones, 1.5)
	if len(vs) != 1 {
		t.Fatalf("barrier 1.5: %d voids, want 1", len(vs))
	}
	if len(vs[0].Zones) != 2 || len(vs[0].CellIDs) != 5 {
		t.Errorf("merged void: %+v", vs[0])
	}
	if math.Abs(vs[0].Volume-18.5) > 1e-12 {
		t.Errorf("merged volume = %v", vs[0].Volume)
	}
}

func TestFloodZonesOnTessellation(t *testing.T) {
	recs := tessellate(t, 6, 6, 121, 2, 0)
	zones, err := voids.Watershed(recs)
	if err != nil {
		t.Fatal(err)
	}
	unmerged := voids.FloodZones(recs, zones, 0)
	if len(unmerged) != len(zones) {
		t.Fatalf("barrier 0 changed zone count: %d vs %d", len(unmerged), len(zones))
	}
	// A huge barrier merges every zone that shares any adjacency; the
	// count can only decrease.
	all := voids.FloodZones(recs, zones, 1e9)
	if len(all) > len(zones) {
		t.Fatalf("flooding increased void count")
	}
	var vol float64
	for _, v := range all {
		vol += v.Volume
	}
	if math.Abs(vol-216) > 1e-6*216 {
		t.Errorf("flooded volumes sum to %v", vol)
	}
}
