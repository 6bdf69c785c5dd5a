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
		if len(r.Neighbors) != len(r.FaceAreas) || len(r.Neighbors) != len(r.FaceVerts) {
			t.Fatal("face arrays misaligned")
		}
		if r.Volume <= 0 || r.Area <= 0 {
			t.Fatalf("cell %d has nonpositive geometry", r.ID)
		}
		var fa float64
		for _, a := range r.FaceAreas {
			fa += a
		}
		// Complete cells have no wall faces, so face areas sum to the total.
		if r.Complete && math.Abs(fa-r.Area) > 1e-6*r.Area {
			t.Fatalf("cell %d: face areas %v != area %v", r.ID, fa, r.Area)
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
	mk := func(id int64, nbs ...int64) voids.CellRecord {
		return voids.CellRecord{ID: id, Volume: 1, Neighbors: nbs,
			FaceAreas: make([]float64, len(nbs)), FaceVerts: make([][]geom.Vec3, len(nbs))}
	}
	cells := []voids.CellRecord{
		mk(1, 2), mk(2, 1, 3), mk(3, 2),
		mk(10, 11), mk(11, 10),
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
	mk := func(id int64, nbs ...int64) voids.CellRecord {
		return voids.CellRecord{ID: id, Volume: 1, Neighbors: nbs,
			FaceAreas: make([]float64, len(nbs)), FaceVerts: make([][]geom.Vec3, len(nbs))}
	}
	// 1-2 adjacency runs through 99, which is not in the set.
	cells := []voids.CellRecord{mk(1, 99), mk(2, 99)}
	comps := voids.ConnectedComponents(cells)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2 (bridge cell absent)", len(comps))
	}
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
	rec := voids.CellRecord{ID: 1, Volume: 1, Area: 6}
	for _, lp := range loops {
		loop := make([]geom.Vec3, len(lp))
		for i, ci := range lp {
			loop[i] = corners[ci]
		}
		rec.Neighbors = append(rec.Neighbors, 99) // neighbor not in set
		rec.FaceAreas = append(rec.FaceAreas, geom.PolygonArea(loop))
		rec.FaceVerts = append(rec.FaceVerts, loop)
	}
	mk := voids.ComputeMinkowski([]*voids.CellRecord{&rec})
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
