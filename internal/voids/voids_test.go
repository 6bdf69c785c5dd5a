package voids_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/voids"
)

// tessellate produces cell records for a perturbed lattice via the full
// parallel pipeline.
func tessellate(t testing.TB, n int, L float64, seed int64, blocks int, minVol float64) []voids.CellRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := L / float64(n)
	var ps []diy.Particle
	id := int64(0)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				ps = append(ps, diy.Particle{
					ID: id,
					Pos: geom.V(
						(float64(x)+0.5)*h+(rng.Float64()-0.5)*0.9*h,
						(float64(y)+0.5)*h+(rng.Float64()-0.5)*0.9*h,
						(float64(z)+0.5)*h+(rng.Float64()-0.5)*0.9*h),
				})
				id++
			}
		}
	}
	cfg := core.Config{
		Domain:    geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)),
		Periodic:  true,
		GhostSize: math.Min(3, L/2),
		MinVolume: minVol,
	}
	out, err := core.Run(cfg, ps, blocks)
	if err != nil {
		t.Fatal(err)
	}
	var recs []voids.CellRecord
	for bi, m := range out.Meshes {
		recs = append(recs, voids.CellsFromMesh(m, bi)...)
	}
	return recs
}

func TestCellsFromMeshShape(t *testing.T) {
	recs := tessellate(t, 6, 6, 84, 4, 0)
	if len(recs) != 216 {
		t.Fatalf("records = %d, want 216", len(recs))
	}
	for _, r := range recs {
		if r.Volume <= 0 || r.Area <= 0 {
			t.Fatalf("cell %d has nonpositive geometry", r.ID)
		}
		// Alone, a cell's boundary is all its faces but the walls, and
		// complete cells have no walls: its face areas sum to the total.
		mk := voids.ConnectedComponents([]voids.CellRecord{r})[0].Functionals
		if mk.Volume != r.Volume {
			t.Fatalf("cell %d: volume %v != %v", r.ID, mk.Volume, r.Volume)
		}
		if r.Complete && math.Abs(mk.Area-r.Area) > 1e-6*r.Area {
			t.Fatalf("cell %d: face areas %v != area %v", r.ID, mk.Area, r.Area)
		}
	}
}

func TestThreshold(t *testing.T) {
	recs := tessellate(t, 6, 6, 85, 2, 0)
	med := median(recs)
	surv := voids.Threshold(recs, med)
	if len(surv) == 0 || len(surv) == len(recs) {
		t.Fatalf("median threshold kept %d of %d", len(surv), len(recs))
	}
	for _, r := range surv {
		if r.Volume < med {
			t.Fatal("threshold kept a small cell")
		}
	}
	if got := voids.Threshold(recs, 0); len(got) != len(recs) {
		t.Error("zero threshold should keep everything")
	}
}

// Label is Threshold + ConnectedComponents with the mean-volume default
// every caller used to spell out; with no cells there is no mean, and the
// answer is no components at threshold 0, not NaN.
func TestLabel(t *testing.T) {
	recs := tessellate(t, 6, 6, 85, 2, 0)
	var sum float64
	for _, r := range recs {
		sum += r.Volume
	}
	mean := sum / float64(len(recs))
	comps, th := voids.Label(recs, 0)
	if th != mean {
		t.Errorf("default threshold %g, want the mean cell volume %g", th, mean)
	}
	if want := voids.ConnectedComponents(voids.Threshold(recs, mean)); !reflect.DeepEqual(comps, want) {
		t.Error("Label(cells, 0) differs from Threshold+ConnectedComponents at the mean")
	}
	if _, th := voids.Label(recs, 1.25); th != 1.25 {
		t.Errorf("explicit threshold came back as %g", th)
	}
	for _, minVol := range []float64{0, -1, 2} {
		comps, th := voids.Label(nil, minVol)
		if len(comps) != 0 || th != math.Max(minVol, 0) {
			t.Errorf("Label(nil, %g) = %d components at %g", minVol, len(comps), th)
		}
		if comps, _ := voids.LabelMeshes([]*meshio.BlockMesh{nil, nil}, minVol); len(comps) != 0 {
			t.Errorf("LabelMeshes over empty slots gave %d components", len(comps))
		}
	}
}

func median(recs []voids.CellRecord) float64 {
	vols := make([]float64, len(recs))
	for i, r := range recs {
		vols[i] = r.Volume
	}
	// Simple selection: sort copy.
	for i := 1; i < len(vols); i++ {
		for j := i; j > 0 && vols[j] < vols[j-1]; j-- {
			vols[j], vols[j-1] = vols[j-1], vols[j]
		}
	}
	return vols[len(vols)/2]
}

func TestConnectedComponentsAllCellsOneComponent(t *testing.T) {
	// With no threshold, the periodic tessellation is fully connected.
	recs := tessellate(t, 5, 5, 86, 2, 0)
	comps := voids.ConnectedComponents(recs)
	if len(comps) != 1 {
		t.Fatalf("full tessellation has %d components, want 1", len(comps))
	}
	if len(comps[0].CellIDs) != len(recs) {
		t.Errorf("component holds %d cells, want %d", len(comps[0].CellIDs), len(recs))
	}
	// Volume of the single component is the whole box.
	if math.Abs(comps[0].Functionals.Volume-125) > 1e-6*125 {
		t.Errorf("component volume = %v, want 125", comps[0].Functionals.Volume)
	}
	// A component covering the periodic box has no boundary at all.
	if comps[0].Functionals.Area > 1e-9 {
		t.Errorf("full-box component has boundary area %v", comps[0].Functionals.Area)
	}
}

func TestConnectedComponentsSplit(t *testing.T) {
	// Construct two artificial clusters connected internally but not to
	// each other.
	cells := []voids.CellRecord{
		cell(1, 1, 2), cell(2, 1, 1, 3), cell(3, 1, 2),
		cell(10, 1, 11), cell(11, 1, 10),
	}
	comps := voids.ConnectedComponents(cells)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0].CellIDs) != 3 || len(comps[1].CellIDs) != 2 {
		t.Errorf("component sizes: %d, %d", len(comps[0].CellIDs), len(comps[1].CellIDs))
	}
}

func TestConnectedComponentsIgnoreNonSurvivors(t *testing.T) {
	// 1-2 adjacency runs through 99, which is not in the set.
	cells := []voids.CellRecord{cell(1, 1, 99), cell(2, 1, 99)}
	comps := voids.ConnectedComponents(cells)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2 (bridge cell absent)", len(comps))
	}
}

// A repeated cell ID is one cell, its first record: listed once, and its
// volume counted once.
func TestConnectedComponentsRepeatedID(t *testing.T) {
	cells := []voids.CellRecord{cell(1, 1, 2), cell(2, 5, 1), cell(2, 7, 1)}
	comps := voids.ConnectedComponents(cells)
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	if got := comps[0].CellIDs; !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Errorf("CellIDs %v, want [1 2]", got)
	}
	if v := comps[0].Functionals.Volume; v != 6 {
		t.Errorf("volume %v, want 6 (the first record of ID 2)", v)
	}
}

// cell is a hand-built record: no face geometry, only adjacency.
func cell(id int64, volume float64, nbs ...int64) voids.CellRecord {
	return voids.CellRecord{ID: id, Volume: volume, Neighbors: nbs}
}

func TestComponentOrderIndependence(t *testing.T) {
	recs := tessellate(t, 5, 5, 87, 4, 0)
	med := median(recs)
	surv := voids.Threshold(recs, med)
	a := voids.ConnectedComponents(surv)
	rev := make([]voids.CellRecord, len(surv))
	for i := range surv {
		rev[len(surv)-1-i] = surv[i]
	}
	b := voids.ConnectedComponents(rev)
	if len(a) != len(b) {
		t.Fatalf("component count depends on order: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Label != b[i].Label || len(a[i].CellIDs) != len(b[i].CellIDs) {
			t.Fatalf("component %d differs across orders", i)
		}
	}
}

func TestMinkowskiSingleCubeCell(t *testing.T) {
	// A single isolated unit-cube cell: V=1, S=6, C = (1/2)*12*(pi/2) = 3pi,
	// chi = 2 (sphere topology), genus 0.
	cube := geom.NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
	corners := cube.Corners()
	loops := [][]int{
		{0, 4, 7, 3}, {1, 2, 6, 5}, {0, 1, 5, 4},
		{2, 3, 7, 6}, {0, 3, 2, 1}, {4, 5, 6, 7},
	}
	m := &meshio.BlockMesh{
		Extents: cube, Verts: corners[:], Particles: []geom.Vec3{cube.Center()},
		ParticleIDs: []int64{1}, Volumes: []float64{1}, Areas: []float64{6}, Complete: []bool{true},
		FaceEnds: []int{len(loops)},
	}
	for _, lp := range loops {
		m.Neighbors = append(m.Neighbors, 99) // neighbor not in set
		for _, ci := range lp {
			m.LoopVerts = append(m.LoopVerts, int32(ci))
		}
		m.LoopEnds = append(m.LoopEnds, len(m.LoopVerts))
	}
	mk := voids.ConnectedComponents(voids.CellsFromMesh(m, 0))[0].Functionals
	if math.Abs(mk.Volume-1) > 1e-12 {
		t.Errorf("V = %v", mk.Volume)
	}
	if math.Abs(mk.Area-6) > 1e-9 {
		t.Errorf("S = %v", mk.Area)
	}
	if math.Abs(mk.MeanCurvature-3*math.Pi) > 1e-9 {
		t.Errorf("C = %v, want %v", mk.MeanCurvature, 3*math.Pi)
	}
	if mk.EulerChi != 2 {
		t.Errorf("chi = %d, want 2", mk.EulerChi)
	}
	if g := mk.Genus(); g != 0 {
		t.Errorf("genus = %v", g)
	}
	// Shapefinders of a cube: T = 3V/S = 0.5, B = S/C = 2/pi, L = C/4pi = 3/4.
	if math.Abs(mk.Thickness-0.5) > 1e-9 {
		t.Errorf("T = %v", mk.Thickness)
	}
	if math.Abs(mk.Breadth-2/math.Pi) > 1e-9 {
		t.Errorf("B = %v", mk.Breadth)
	}
	if math.Abs(mk.Length-0.75) > 1e-9 {
		t.Errorf("L = %v", mk.Length)
	}
}

func TestMinkowskiComponentsFromTessellation(t *testing.T) {
	recs := tessellate(t, 6, 6, 88, 4, 0)
	med := median(recs)
	comps := voids.ConnectedComponents(voids.Threshold(recs, med))
	if len(comps) == 0 {
		t.Fatal("no components")
	}
	var total float64
	for _, c := range comps {
		mk := c.Functionals
		if mk.Volume <= 0 {
			t.Fatal("component with nonpositive volume")
		}
		if mk.Area <= 0 {
			t.Fatal("thresholded component with no boundary")
		}
		if mk.Thickness <= 0 {
			t.Fatal("nonpositive thickness")
		}
		// chi is bounded for realistic voids: each boundary face adds at
		// most 2, and pinch points (cells of one component touching only
		// at a vertex) can make it odd, so only sanity-bound it.
		if mk.EulerChi > 2*len(c.CellIDs)*20 || mk.EulerChi < -2*len(c.CellIDs)*20 {
			t.Errorf("implausible Euler characteristic %d for %d cells", mk.EulerChi, len(c.CellIDs))
		}
		total += mk.Volume
	}
	// Total component volume equals total surviving cell volume.
	var surv float64
	for _, r := range voids.Threshold(recs, med) {
		surv += r.Volume
	}
	if math.Abs(total-surv) > 1e-9*surv {
		t.Errorf("component volumes %v != surviving volume %v", total, surv)
	}
}

func TestThresholdSweepMonotone(t *testing.T) {
	recs := tessellate(t, 6, 6, 89, 2, 0)
	ths := []float64{0, 0.5, 0.75, 1.0, 1.5}
	rows := voids.ThresholdSweep(recs, ths)
	if len(rows) != len(ths) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Cells > rows[i-1].Cells {
			t.Errorf("surviving cells increased with threshold: %+v", rows)
		}
	}
	if rows[0].Components != 1 {
		t.Errorf("zero threshold: %d components, want 1", rows[0].Components)
	}
}

func TestReadTessFile(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	const L = 6.0
	var ps []diy.Particle
	for i := 0; i < 216; i++ {
		ps = append(ps, diy.Particle{ID: int64(i), Pos: geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L)})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tess")
	cfg := core.Config{
		Domain:    geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)),
		Periodic:  true,
		GhostSize: 3,
	}
	if _, err := core.Run(cfg, ps, 4, core.WithOutputPath(path)); err != nil {
		t.Fatal(err)
	}
	recs, err := voids.ReadTessFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records read")
	}
	if _, err := voids.ReadTessFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// Reading a tess file and finding its voids make a number of allocations
// set by the block count, not the cell count: the records are views of the
// decoded rows, and the components are labelled and measured in flat
// scratch arrays. An 8^3 and a 16^3 lattice on four blocks stay within a
// few allocations of each other.
func TestVoidsAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		path := filepath.Join(t.TempDir(), "t.tess")
		cfg := core.Config{
			Domain:    geom.NewBox(geom.V(0, 0, 0), geom.V(float64(n), float64(n), float64(n))),
			Periodic:  true,
			GhostSize: 3,
		}
		if _, err := core.Run(cfg, jitteredLattice(n, 34), 4, core.WithOutputPath(path)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			recs, err := voids.ReadTessFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(voids.ConnectedComponents(voids.Threshold(recs, 1))) == 0 {
				t.Fatal("no components")
			}
		})
	}
	small, large := allocs(8), allocs(16)
	t.Logf("%.0f allocations at 8^3, %.0f at 16^3", small, large)
	if large > small+8 {
		t.Errorf("%.0f allocations at 8^3 but %.0f at 16^3", small, large)
	}
}
