package delaunay

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
)

// coldBuildBytes returns the bytes a Build of pts on a fresh Builder
// allocates.
func coldBuildBytes(t *testing.T, pts []geom.Vec3) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Build(pts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A cold build must allocate O(n) bytes: every buffer that follows the tet
// array grows geometrically. (A stamp array remade at the exact tet count on
// every insertion made this ratio ~4 and the first density step of every
// session ~10x a warm one.)
func TestColdBuildAllocatesLinearly(t *testing.T) {
	small := coldBuildBytes(t, randomCloud(21, 4000, 10))
	large := coldBuildBytes(t, randomCloud(22, 8000, 10))
	ratio := float64(large) / float64(small)
	t.Logf("4000 points: %d bytes, 8000 points: %d bytes, ratio %.2f", small, large, ratio)
	if ratio >= 2.6 {
		t.Errorf("cold Build allocated %d bytes for 4000 points and %d for 8000: ratio %.2f, want < 2.6", small, large, ratio)
	}
}

// Freed cavity slots are reused, so the tet array stays within a cavity or
// two of the live tets however many tets the build created on the way.
func TestSlotsBoundedByLiveTets(t *testing.T) {
	for name, pts := range goldenInputs() {
		var s Builder
		tr, err := s.Build(pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := s.Stats()
		if st.PeakSlots > st.LiveTets+st.LiveTets/4+64 {
			t.Errorf("%s: %d slots for %d live tets (%d created)", name, st.PeakSlots, st.LiveTets, st.TetsCreated)
		}
		if int64(len(tr.Tets)) > st.LiveTets || st.LiveTets > st.TetsCreated {
			t.Errorf("%s: %d output tets, %d live, %d created", name, len(tr.Tets), st.LiveTets, st.TetsCreated)
		}
	}
}

// Stats are a function of the input alone: a warm Builder, a fresh one and
// a different GOMAXPROCS all report the same counts, and the counts obey
// the bookkeeping identities of Bowyer-Watson.
func TestStatsExactAndRepeatable(t *testing.T) {
	pts := goldenInputs()["lattice-6-dups"]
	var warm Builder
	if _, err := warm.Build(randomCloud(5, 300, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Build(pts); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var cold Builder
	if _, err := cold.Build(pts); err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if warm.Stats() != st {
		t.Errorf("warm build counted %+v, cold build %+v", warm.Stats(), st)
	}
	if st.Points != int64(len(pts)) || st.Duplicates != 50 {
		t.Errorf("points %d, duplicates %d; want %d, 50", st.Points, st.Duplicates, len(pts))
	}
	// Every insertion replaces its cavity with one tet per boundary face.
	if st.TetsCreated != 1+st.BoundaryFaces || st.LiveTets != st.TetsCreated-st.CavityTets {
		t.Errorf("inconsistent counts: %+v", st)
	}
	if st.WalkSteps < st.Points || st.InSphereTests == 0 {
		t.Errorf("walk steps %d, insphere tests %d for %d points", st.WalkSteps, st.InSphereTests, st.Points)
	}
}

// An internal face that the cavity search reports as boundary — here
// because one side's neighbor link was cut — leaves new faces without a
// partner, and the insertion must say so instead of building a broken mesh.
func TestUnmatchedFaceStillErrors(t *testing.T) {
	pts := randomCloud(31, 60, 4)
	var b builder
	dupEps := b.reset(pts)
	last := int32(len(pts) - 1)
	for i := int32(0); i < last; i++ {
		if err := b.insert(i, dupEps); err != nil {
			t.Fatal(err)
		}
	}
	p := b.pts[last]
	start, err := b.locate(p, dupEps)
	if err != nil {
		t.Fatal(err)
	}
	// Find a neighbor of the containing tet that is in the cavity too, and
	// cut its link back: the search reaches it from start, then takes the
	// shared face for a hull face.
	cut := false
	for _, nb := range b.tets[start].nb {
		if nb < 0 || !b.inSphere(nb, p) {
			continue
		}
		for f, back := range b.tets[nb].nb {
			if back == start {
				b.tets[nb].nb[f] = -1
				cut = true
			}
		}
		break
	}
	if !cut {
		t.Fatal("setup: the last point's cavity is a single tet")
	}
	b.last = start // the walk must not cross the cut face
	err = b.insert(last, dupEps)
	if err == nil || !strings.Contains(err.Error(), "3 unmatched internal faces") {
		t.Fatalf("insert into a corrupted cavity returned %v, want 3 unmatched internal faces", err)
	}
}

// hilbert3 is a Hilbert curve: at every order it visits each cell exactly
// once, and consecutive cells share a face.
func TestHilbertCurveVisitsNeighbours(t *testing.T) {
	for order := 1; order <= 5; order++ {
		side := uint32(1) << order
		cells := make([][3]uint32, side*side*side)
		seen := make([]bool, len(cells))
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				for z := uint32(0); z < side; z++ {
					h := hilbert3(x, y, z, order)
					if int(h) >= len(cells) || seen[h] {
						t.Fatalf("order %d: cell %d,%d,%d has index %d, out of range or taken", order, x, y, z, h)
					}
					seen[h] = true
					cells[h] = [3]uint32{x, y, z}
				}
			}
		}
		for h := 1; h < len(cells); h++ {
			steps := 0
			for i := range 3 {
				d := int(cells[h][i]) - int(cells[h-1][i])
				steps += d * d
			}
			if steps != 1 {
				t.Fatalf("order %d: index %d at %v follows %v", order, h, cells[h], cells[h-1])
			}
		}
	}
}
