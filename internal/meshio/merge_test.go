package meshio_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
)

func mergeFixture(t *testing.T, blocks int) ([]*meshio.BlockMesh, geom.Box) {
	t.Helper()
	const L = 8.0
	rng := rand.New(rand.NewSource(11))
	h := L / 5
	var ps []diy.Particle
	id := int64(0)
	for z := 0; z < 5; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				ps = append(ps, diy.Particle{ID: id, Pos: geom.V(
					(float64(x)+0.5)*h+(rng.Float64()-0.5)*0.6*h,
					(float64(y)+0.5)*h+(rng.Float64()-0.5)*0.6*h,
					(float64(z)+0.5)*h+(rng.Float64()-0.5)*0.6*h)})
				id++
			}
		}
	}
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L))
	out, err := core.Run(core.Config{Domain: domain, Periodic: true, GhostSize: 3}, ps, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return out.Meshes, domain
}

// Merging an already-canonical mesh must be a fixed point: the canonical
// vertices are exactly the three-plane intersections the merge re-derives,
// so a second pass reproduces the mesh bit for bit.
func TestMergeCanonicalIdempotent(t *testing.T) {
	meshes, domain := mergeFixture(t, 2)
	m1, err := meshio.MergeCanonical(meshes, domain, true)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := meshio.MergeCanonical([]*meshio.BlockMesh{m1}, domain, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("second merge changed the mesh (%d vs %d vertices)", len(m2.Verts), len(m1.Verts))
	}
}

// The canonical mesh must preserve topology counts and keep the shared
// vertex pool welded (each Voronoi vertex is shared by several cells).
func TestMergeCanonicalShape(t *testing.T) {
	meshes, domain := mergeFixture(t, 8)
	m, err := meshio.MergeCanonical(meshes, domain, true)
	if err != nil {
		t.Fatal(err)
	}
	var cells int
	for _, bm := range meshes {
		cells += bm.NumCells()
	}
	if m.NumCells() != cells {
		t.Fatalf("merged %d cells, want %d", m.NumCells(), cells)
	}
	st := m.ComputeStats()
	if st.VertSharing < 3 {
		t.Errorf("vertex sharing %.2f: canonical weld failed to merge shared vertices", st.VertSharing)
	}
	for i := 1; i < len(m.ParticleIDs); i++ {
		if m.ParticleIDs[i-1] >= m.ParticleIDs[i] {
			t.Fatalf("cells not sorted by particle ID at %d", i)
		}
	}
	for i, v := range m.Volumes {
		if v <= 0 {
			t.Errorf("cell %d: non-positive canonical volume %g", i, v)
		}
		if m.Areas[i] <= 0 {
			t.Errorf("cell %d: non-positive canonical area %g", i, m.Areas[i])
		}
	}
}

func TestMergeCanonicalRejectsDuplicates(t *testing.T) {
	meshes, domain := mergeFixture(t, 2)
	if _, err := meshio.MergeCanonical([]*meshio.BlockMesh{meshes[0], meshes[0], meshes[1]}, domain, true); err == nil {
		t.Error("duplicate block accepted")
	}
}

func TestMergeCanonicalRejectsMissingNeighbor(t *testing.T) {
	meshes, domain := mergeFixture(t, 2)
	if _, err := meshio.MergeCanonical(meshes[:1], domain, true); err == nil {
		t.Error("partial tessellation accepted")
	}
}

func TestMergeCanonicalRejectsWallFaces(t *testing.T) {
	// A non-periodic run keeps wall-free interior cells only if incomplete
	// cells are retained; force wall faces in by keeping them.
	const L = 8.0
	var ps []diy.Particle
	id := int64(0)
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				ps = append(ps, diy.Particle{ID: id, Pos: geom.V(
					(float64(x)+0.5)*L/3, (float64(y)+0.5)*L/3, (float64(z)+0.5)*L/3)})
				id++
			}
		}
	}
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L))
	out, err := core.Run(core.Config{Domain: domain, GhostSize: 2, KeepIncomplete: true}, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := meshio.MergeCanonical(out.Meshes, domain, false); err == nil {
		t.Error("mesh with wall faces accepted")
	}
}

// A hand-built mesh whose per-cell arrays disagree, or whose connectivity
// rows do not partition the arrays they index, is an error for the merge
// and the encoder, not an index-out-of-range panic.
func TestMergeCanonicalRejectsInconsistentArrays(t *testing.T) {
	meshes, domain := mergeFixture(t, 2)
	for _, tc := range []struct {
		name   string
		mutate func(m *meshio.BlockMesh)
	}{
		{"short Complete", func(m *meshio.BlockMesh) { m.Complete = m.Complete[:len(m.Complete)-1] }},
		{"rows of different lengths", func(m *meshio.BlockMesh) { m.LoopEnds = m.LoopEnds[:len(m.LoopEnds)-1] }},
		{"decreasing ends", func(m *meshio.BlockMesh) { m.FaceEnds[2], m.FaceEnds[3] = m.FaceEnds[3], m.FaceEnds[2] }},
		{"last end short of its array", func(m *meshio.BlockMesh) { m.LoopVerts = append(m.LoopVerts, 0) }},
	} {
		bad := meshes[1].Clone()
		tc.mutate(bad)
		_, mergeErr := meshio.MergeCanonical([]*meshio.BlockMesh{meshes[0], bad}, domain, true)
		_, encodeErr := bad.Encode()
		for _, err := range []error{mergeErr, encodeErr} {
			if err == nil || !strings.Contains(err.Error(), "inconsistent block arrays") {
				t.Errorf("%s: got %v, want the inconsistent-arrays error", tc.name, err)
			}
		}
	}
}

// A face vertex index outside the block's vertex pool is an error naming
// the cell. (Decoded meshes cannot carry one: both decoders range-check.)
func TestMergeCanonicalRejectsVertexIndexOutOfRange(t *testing.T) {
	meshes, domain := mergeFixture(t, 2)
	for _, vi := range []int32{-1, int32(len(meshes[1].Verts))} {
		bad := meshes[1].Clone()
		lo, _ := bad.Faces(3)
		bad.Loop(lo)[1] = vi
		_, err := meshio.MergeCanonical([]*meshio.BlockMesh{meshes[0], bad}, domain, true)
		want := fmt.Sprintf("cell %d references vertex %d", bad.ParticleIDs[3], vi)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("vertex index %d: got %v, want an error containing %q", vi, err, want)
		}
	}
}

// Relabelling the particles by a monotone map that leaves gaps between
// IDs must only relabel the merged mesh: the sparse IDs take the merge's
// binary-search neighbor lookup, the dense ones its lookup by subtraction,
// and both give the same rows.
func TestMergeCanonicalSparseIDs(t *testing.T) {
	meshes, domain := goldenInput(t, "jitter8", 1, 2).run(t)
	relabel := func(id int64) int64 { return 3*id + 7 }
	sparse := make([]*meshio.BlockMesh, len(meshes))
	for i, m := range meshes {
		c := m.Clone()
		for k, id := range c.ParticleIDs {
			c.ParticleIDs[k] = relabel(id)
		}
		for k, nb := range c.Neighbors {
			c.Neighbors[k] = relabel(nb)
		}
		sparse[i] = c
	}
	want, err := meshio.MergeCanonical(meshes, domain, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := meshio.MergeCanonical(sparse, domain, true)
	if err != nil {
		t.Fatal(err)
	}
	for k, id := range want.ParticleIDs {
		want.ParticleIDs[k] = relabel(id)
	}
	for k, nb := range want.Neighbors {
		want.Neighbors[k] = relabel(nb)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("sparse IDs changed the merged mesh beyond its ID fields")
	}
}

// One Merger reused across inputs of different sizes, and across a merge
// that fails, must give each input the bytes a fresh MergeCanonical gives.
// A record the last merge left behind would pass for the next merge's if
// the Merger's cell serials restarted, so the first input runs twice.
func TestMergerReuseMatchesFresh(t *testing.T) {
	small, smallDomain := goldenInput(t, "jitter8", 1, 2).run(t)
	large, largeDomain := goldenInput(t, "nbody16", 1, 4).run(t)
	var mg meshio.Merger
	for i, tc := range []struct {
		meshes []*meshio.BlockMesh
		domain geom.Box
	}{
		{small, smallDomain},
		{small, smallDomain},
		{large, largeDomain},
		{small[:1], smallDomain}, // a missing neighbor: an error
		{small, smallDomain},
	} {
		want, wantErr := meshio.MergeCanonical(tc.meshes, tc.domain, true)
		got, err := mg.Merge(tc.meshes, tc.domain, true)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("merge %d: got error %v, want %v", i, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("merge %d: %v", i, err)
		}
		if !bytes.Equal(meshio.EncodeV1(got), meshio.EncodeV1(want)) {
			t.Errorf("merge %d: a reused Merger's bytes differ from a fresh merge's", i)
		}
	}
}

// A warm Merger keeps every array the merge fills, so merging the same
// input again allocates (almost) nothing.
func TestMergerWarmAllocs(t *testing.T) {
	meshes, domain := goldenInput(t, "jitter8", 1, 2).run(t)
	var mg meshio.Merger
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := mg.Merge(meshes, domain, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("%.0f allocations per warm merge, want at most 2", allocs)
	}
}

// The merge probes the weld table once per vertex of each cell, not once
// per loop reference (about three per vertex): on jitter8 the probes equal
// the (cell, block-local vertex) pairs of the inputs.
func TestMergeWeldProbesPerCellVertex(t *testing.T) {
	meshes, domain := goldenInput(t, "jitter8", 1, 2).run(t)
	var pairs, refs int
	for _, m := range meshes {
		seen := make([]int, len(m.Verts)) // cell+1 that last counted the vertex
		for c := range m.NumCells() {
			lo, hi := m.Faces(c)
			for f := lo; f < hi; f++ {
				for _, vi := range m.Loop(f) {
					refs++
					if seen[vi] != c+1 {
						seen[vi] = c + 1
						pairs++
					}
				}
			}
		}
	}
	var mg meshio.Merger
	if _, err := mg.Merge(meshes, domain, true); err != nil {
		t.Fatal(err)
	}
	if got := mg.WeldProbes(); got != pairs {
		t.Errorf("%d weld probes, want one per (cell, vertex) pair: %d (loop references: %d)", got, pairs, refs)
	}
}
