package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/diy"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/voronoi"
)

// exchangedBlocks decomposes ps into blocks and runs one ghost exchange,
// returning the decomposition with every rank's local and ghost particles.
func exchangedBlocks(t testing.TB, cfg Config, ps []diy.Particle, blocks int) (*diy.Decomposition, [][]diy.Particle, [][]diy.Particle) {
	t.Helper()
	d, err := diy.Decompose(cfg.Domain, blocks, cfg.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	parts := diy.PartitionParticles(d, ps)
	ghosts := make([][]diy.Particle, d.NumBlocks())
	w := comm.NewWorld(d.NumBlocks())
	if err := w.Run(func(rank int) {
		ghosts[rank] = diy.NewExchanger(d, rank, cfg.GhostSize).Exchange(w, d, rank, parts[rank])
	}); err != nil {
		t.Fatal(err)
	}
	return d, parts, ghosts
}

// serialWeld is the mesh the streamed weld must reproduce: every local
// cell built through ComputeCellPooled, kept by the pipeline's rules
// (the kernel's cull exit only stops cells the exact test removes too),
// and welded by one MeshBuilder.Build in site order.
func serialWeld(t testing.TB, cfg Config, rs *rankState, local []diy.Particle) *meshio.BlockMesh {
	t.Helper()
	s, pool := voronoi.NewScratch(), new(voronoi.CellPool)
	var kept []*voronoi.Cell
	for _, p := range local {
		c, err := voronoi.ComputeCellPooled(rs.bi.ix, p.Pos, p.ID, rs.bi.initBox, s, pool)
		if err != nil {
			t.Fatal(err)
		}
		vol := c.Volume()
		if (!c.Complete && !cfg.KeepIncomplete) ||
			(cfg.MinVolume > 0 && vol < cfg.MinVolume) || (cfg.MaxVolume > 0 && vol > cfg.MaxVolume) {
			continue
		}
		kept = append(kept, c)
	}
	return new(meshio.MeshBuilder).Build(kept, rs.bi.bounds, 0)
}

// Workers weld finished cells into chunk fragments that one stitch per
// rank numbers in site order: the mesh must equal the serial
// Build's over the same cells, for every worker count (hence every
// chunking), on inputs with on-plane vertices (the exact lattice), on a
// block with fewer sites than chunks (one site per chunk), and on a block
// whose cells are all culled (an empty mesh).
func TestStreamedWeldMatchesBuild(t *testing.T) {
	halo := clusteredParticles(t, 16*16*16, 16, 23)
	cases := []struct {
		name   string
		ps     []diy.Particle
		L      float64
		blocks int
		ghost  float64
		minVol float64
	}{
		{name: "nbody-16", ps: evolvingSnapshots(t, 16, 3)[2], L: 16, blocks: 4, ghost: 4},
		{name: "halo-16", ps: halo, L: 16, blocks: 4, ghost: balanceGhost},
		{name: "exact-10", ps: perturbedParticles(rand.New(rand.NewSource(1)), 10, 10, 0), L: 10, blocks: 2, ghost: 3},
		{name: "tiny-3", ps: perturbedParticles(rand.New(rand.NewSource(2)), 3, 3, 0.6), L: 3, blocks: 1, ghost: 1.5},
		{name: "all-culled", ps: perturbedParticles(rand.New(rand.NewSource(3)), 6, 6, 0.6), L: 6, blocks: 2, ghost: 3, minVol: 1e6},
	}
	for _, tc := range cases {
		cfg := baseConfig(tc.L)
		cfg.GhostSize = tc.ghost
		cfg.MinVolume = tc.minVol
		d, parts, ghosts := exchangedBlocks(t, cfg, tc.ps, tc.blocks)
		for rank := 0; rank < d.NumBlocks(); rank++ {
			var rs rankState
			for _, workers := range []int{1, 2, 3, 8} {
				res, _, err := rs.compute(cfg, rank, d.Block(rank), parts[rank], ghosts[rank], workers)
				if err != nil {
					t.Fatalf("%s rank %d workers %d: %v", tc.name, rank, workers, err)
				}
				want := serialWeld(t, cfg, &rs, parts[rank])
				same := reflect.DeepEqual(res.Mesh, want)
				if want.NumCells() == 0 { // Build leaves an empty mesh's rows nil, a stitch empty
					same = res.Mesh.NumCells()+len(res.Mesh.Verts) == 0 && res.Mesh.Extents == want.Extents
				}
				if !same {
					t.Errorf("%s rank %d workers %d: streamed weld differs from Build", tc.name, rank, workers)
				}
				if tc.minVol > 0 && res.Mesh.NumCells()+len(res.Mesh.Verts) != 0 {
					t.Errorf("%s rank %d workers %d: %d cells, %d vertices survive a cull of every cell",
						tc.name, rank, workers, res.Mesh.NumCells(), len(res.Mesh.Verts))
				}
			}
		}
	}
}

// The weld counters are exact: the same for every worker count, and
// pinned on one input.
func TestWeldCountersPinned(t *testing.T) {
	ps := perturbedParticles(rand.New(rand.NewSource(43)), 6, 6, 0.8)
	const blocks = 2
	want := []struct {
		name string
		n    []int64
	}{
		{CounterMeshVertexRefs, []int64{8532, 8652}},
		{CounterMeshVerts, []int64{1179, 1216}},
	}
	for _, workers := range []int{1, 2, 3} {
		cfg := baseConfig(6)
		cfg.Workers = workers
		cfg.Recorder = obs.NewRecorder(blocks)
		out, err := Run(cfg, ps, blocks)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if got := out.Obs.Counters[w.name]; !reflect.DeepEqual(got, w.n) {
				t.Errorf("workers %d: %s = %v, want %v", workers, w.name, got, w.n)
			}
		}
		for rank, m := range out.Meshes {
			if v := out.Obs.Counters[CounterMeshVerts][rank]; v != int64(len(m.Verts)) {
				t.Errorf("workers %d rank %d: %s = %d, mesh has %d vertices", workers, rank, CounterMeshVerts, v, len(m.Verts))
			}
		}
	}
}
