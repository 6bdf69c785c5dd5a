package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	tess "repro"
	"repro/internal/comm"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/qhull"
	"repro/internal/voronoi"
)

// The layer replay re-enacts one tessellation pass through the layers'
// exported functions, single-threaded and one span per call, so each layer
// gets a cost of its own that a session's wall time cannot give. It only
// enters the layers the workload's op enters (replaySpec says which), and
// the caller requires its cells to equal the session's bit for bit, which
// is what makes the replay a measurement of the same work.

// replaySpec describes the op being replayed.
type replaySpec struct {
	cfg    tess.Config
	blocks int
	// warm: the op runs on a session past its first step, so its mesh
	// builders are at working-set size; the replay then times each
	// builder's second Build.
	warm bool
	// encodeV1 / writePath / encodeV2 / merge: the op encodes its blocks in
	// the v1 format, writes them collectively to a file, checkpoints them
	// in the v2 format, merges them canonically.
	encodeV1  bool
	writePath string
	encodeV2  bool
	merge     bool
}

// replayTess runs the replay over ps and returns the per-block meshes it
// built (valid until the function's builders are collected, i.e. owned).
func replayTess(p params, ps []tess.Particle, rs replaySpec, set func(string, float64, int)) ([]*meshio.BlockMesh, error) {
	tr := p.tr
	root := tr.begin("replay", -1, -1, 0)
	defer tr.end(root)
	span := func(name string) timing { return tr.start(name, root, -1, 0) }
	cfg := rs.cfg
	n := len(ps)

	// diy: decomposition, partition, one ghost-exchange round.
	var d *diy.Decomposition
	var err error
	if cfg.Decomposition == tess.DecomposeRCB {
		tm := span("diy.DecomposeRCB")
		d, err = diy.DecomposeRCB(cfg.Domain, rs.blocks, cfg.Periodic, ps, cfg.GhostSize)
		set("diy.decompose_rcb_s", tm.stop().Seconds(), 1)
	} else {
		d, err = diy.Decompose(cfg.Domain, rs.blocks, cfg.Periodic)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: decompose: %w", err)
	}
	tm := span("diy.PartitionParticles")
	parts := diy.PartitionParticles(d, ps)
	set("diy.partition_ns_per_pt", float64(tm.stop().Nanoseconds())/float64(n), n)

	ghosts := make([][]diy.Particle, rs.blocks)
	exchangers := make([]*diy.Exchanger, rs.blocks)
	for r := range exchangers {
		exchangers[r] = diy.NewExchanger(d, r, cfg.GhostSize)
	}
	w := comm.NewWorld(rs.blocks)
	tm = span("diy.Exchanger.Exchange")
	err = w.Run(func(rank int) {
		ghosts[rank] = exchangers[rank].Exchange(w, d, rank, parts[rank])
	})
	set("diy.exchange_round_s", tm.stop().Seconds(), 1)
	if err != nil {
		return nil, fmt.Errorf("replay: exchange: %w", err)
	}
	nghost := 0
	for _, g := range ghosts {
		nghost += len(g)
	}
	set("diy.ghost_particles", float64(nghost), 1)
	set("diy.ghost_bytes", 32*float64(nghost), 1) // computed: int64 id + 3 float64

	// voronoi / qhull / meshio.Build, block by block on one thread with one
	// warm Scratch and one CellPool per block (the pool owns the cells the
	// block's mesh is built from).
	scratch := voronoi.NewScratch()
	pools := make([]voronoi.CellPool, rs.blocks)
	builders := make([]meshio.MeshBuilder, rs.blocks)
	meshes := make([]*meshio.BlockMesh, rs.blocks)
	var ix voronoi.Index
	var all []geom.Vec3
	var ids []int64
	var cells, kept []*voronoi.Cell
	var rebuild, compute, hull, build time.Duration
	var indexed, sites, hulled, nkept, faces, verts int
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for b := 0; b < rs.blocks; b++ {
		block := d.Block(b)
		local := parts[b]
		all, ids = all[:0], ids[:0]
		for _, q := range local {
			all = append(all, q.Pos)
			ids = append(ids, q.ID)
		}
		for _, q := range ghosts[b] {
			all = append(all, q.Pos)
			ids = append(ids, q.ID)
		}
		tm = span("voronoi.Index.Rebuild")
		ix.Rebuild(all, ids, 0)
		rebuild += tm.stop()
		indexed += len(all)

		initBox := block.Bounds.Expand(math.Max(cfg.GhostSize, 1e-9*block.Bounds.Size().MaxAbs()))
		pool := &pools[b]
		if b == 0 {
			// Grow the scratch to working-set size before anything is timed.
			for _, q := range local[:min(len(local), 512)] {
				if _, err := voronoi.ComputeCellPooled(&ix, q.Pos, q.ID, initBox, scratch, pool); err != nil {
					return nil, fmt.Errorf("replay: cell %d: %w", q.ID, err)
				}
			}
			pool.Reset()
		}
		cells = cells[:0]
		runtime.ReadMemStats(&ms0)
		tm = span("voronoi.ComputeCellPooled")
		for _, q := range local {
			c, err := voronoi.ComputeCellPooled(&ix, q.Pos, q.ID, initBox, scratch, pool)
			if err != nil {
				return nil, fmt.Errorf("replay: cell %d: %w", q.ID, err)
			}
			cells = append(cells, c)
		}
		compute += tm.stop()
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		sites += len(local)

		// core's keep/cull rules. Its diameter pre-cull is skipped: it only
		// removes cells the exact volume test below removes as well.
		kept = kept[:0]
		if cfg.HullPass {
			tm = span("qhull.Compute")
		}
		for _, c := range cells {
			faces += len(c.Faces)
			verts += len(c.Verts)
			if !c.Complete && !cfg.KeepIncomplete {
				continue
			}
			vol := c.Volume()
			if cfg.HullPass {
				if h, err := qhull.Compute(c.Verts); err == nil {
					vol = h.Volume()
				}
				hulled++
			}
			if (cfg.MinVolume > 0 && vol < cfg.MinVolume) || (cfg.MaxVolume > 0 && vol > cfg.MaxVolume) {
				continue
			}
			kept = append(kept, c)
		}
		if cfg.HullPass {
			hull += tm.stop()
		}

		if rs.warm {
			builders[b].Build(kept, block.Bounds, 0)
		}
		tm = span("meshio.MeshBuilder.Build")
		meshes[b] = builders[b].Build(kept, block.Bounds, 0)
		build += tm.stop()
		nkept += len(kept)
	}
	set("voronoi.index_rebuild_ns_per_pt", float64(rebuild.Nanoseconds())/float64(indexed), indexed)
	cellNS := float64(compute.Nanoseconds()) / float64(sites)
	set("voronoi.cell_ns", cellNS, sites)
	set("voronoi.cells_per_s_thread", 1e9/cellNS, sites)
	set("voronoi.cell_allocs", float64(mallocs)/float64(sites), sites)
	set("voronoi.faces_per_cell", float64(faces)/float64(sites), sites)
	set("voronoi.verts_per_cell", float64(verts)/float64(sites), sites)
	if hulled > 0 {
		set("qhull.hull_ns_per_cell", float64(hull.Nanoseconds())/float64(hulled), hulled)
	}
	if nkept > 0 {
		set("meshio.build_ns_per_cell", float64(build.Nanoseconds())/float64(nkept), nkept)
	}

	// meshio encode/decode and the collective write, where the op does them.
	mbs := func(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }
	if rs.encodeV1 {
		payloads := make([][]byte, rs.blocks)
		total := 0
		tm = span("meshio.BlockMesh.Encode")
		for b, m := range meshes {
			if payloads[b], err = m.Encode(); err != nil {
				return nil, fmt.Errorf("replay: encode v1: %w", err)
			}
			total += len(payloads[b])
		}
		dt := tm.stop()
		set("meshio.encode_v1_mb_s", mbs(total, dt), total)
		set("meshio.bytes_per_cell_v1", float64(total)/float64(nkept), nkept)
		if rs.writePath != "" {
			werrs := make([]error, rs.blocks)
			w := comm.NewWorld(rs.blocks)
			tm = span("diy.CollectiveWrite")
			err = w.Run(func(rank int) {
				_, werrs[rank] = diy.CollectiveWrite(w, rank, rs.writePath, payloads[rank])
			})
			dt = tm.stop()
			if err = errors.Join(append(werrs, err)...); err != nil {
				return nil, fmt.Errorf("replay: collective write: %w", err)
			}
			st, err := os.Stat(rs.writePath)
			if err != nil {
				return nil, fmt.Errorf("replay: collective write: %w", err)
			}
			set("diy.collective_write_mb_s", mbs(int(st.Size()), dt), int(st.Size()))
		}
	}
	if rs.encodeV2 {
		payloads := make([][]byte, rs.blocks)
		total := 0
		tm = span("meshio.EncodeV2")
		for b, m := range meshes {
			if payloads[b], err = meshio.EncodeV2(m); err != nil {
				return nil, fmt.Errorf("replay: encode v2: %w", err)
			}
			total += len(payloads[b])
		}
		dt := tm.stop()
		set("meshio.encode_v2_mb_s", mbs(total, dt), total)
		set("meshio.bytes_per_cell_v2", float64(total)/float64(nkept), nkept)
		tm = span("meshio.DecodeBlockMesh")
		for _, raw := range payloads {
			if _, err := meshio.DecodeBlockMesh(raw); err != nil {
				return nil, fmt.Errorf("replay: decode v2: %w", err)
			}
		}
		dt = tm.stop()
		set("meshio.decode_v2_mb_s", mbs(total, dt), total)
	}
	if rs.merge {
		tm = span("meshio.MergeCanonical")
		_, err := meshio.MergeCanonical(meshes, cfg.Domain, cfg.Periodic)
		set("meshio.merge_canonical_s", tm.stop().Seconds(), 1)
		if err != nil {
			return nil, fmt.Errorf("replay: merge: %w", err)
		}
	}
	return meshes, nil
}

// sameCells reports the first difference between two sets of per-block
// meshes in cell ids or volume bits, or nil when they agree cell for cell.
func sameCells(got, want []*meshio.BlockMesh) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d blocks, want %d", len(got), len(want))
	}
	for b := range got {
		g, w := got[b], want[b]
		if len(g.ParticleIDs) != len(w.ParticleIDs) {
			return fmt.Errorf("block %d: %d cells, want %d", b, len(g.ParticleIDs), len(w.ParticleIDs))
		}
		for i := range g.ParticleIDs {
			if g.ParticleIDs[i] != w.ParticleIDs[i] {
				return fmt.Errorf("block %d cell %d: id %d, want %d", b, i, g.ParticleIDs[i], w.ParticleIDs[i])
			}
			if math.Float64bits(g.Volumes[i]) != math.Float64bits(w.Volumes[i]) {
				return fmt.Errorf("block %d cell id %d: volume %v, want %v", b, g.ParticleIDs[i], g.Volumes[i], w.Volumes[i])
			}
		}
	}
	return nil
}

// phaseSamples reduces the recorder snapshots of the traced ops to the
// core.* phase metrics: slowest-rank time per phase, compute imbalance, and
// the share of the step's wall time no phase accounts for.
type phaseSamples struct {
	exchange, ghostMerge, compute, output, barrier, overhead, imbalance []float64
}

func (ps *phaseSamples) add(snap *tess.ObsSnapshot, wall time.Duration) {
	if snap == nil {
		return
	}
	ex := snap.SlowestRank(tess.PhaseExchange).Seconds()
	gm := snap.SlowestRank(tess.PhaseGhostMerge).Seconds()
	co := snap.SlowestRank(tess.PhaseCompute).Seconds()
	ou := snap.SlowestRank(tess.PhaseOutput).Seconds()
	ps.exchange = append(ps.exchange, ex)
	ps.ghostMerge = append(ps.ghostMerge, gm)
	ps.compute = append(ps.compute, co)
	ps.output = append(ps.output, ou)
	ps.barrier = append(ps.barrier, snap.SlowestRank(tess.PhaseBarrier).Seconds())
	// A rank's phases run back to back, so the busiest rank's total is the
	// part of the step's wall time the pipeline accounts for; the rest is
	// partitioning, rank launch and join, collectives, and the recorder.
	var busiest time.Duration
	for _, m := range snap.PerRank {
		busiest = max(busiest, m.Phase.Exchange+m.Phase.GhostMerge+m.Phase.Compute+m.Phase.Output)
	}
	ps.overhead = append(ps.overhead, 1-busiest.Seconds()/wall.Seconds())
	ps.imbalance = append(ps.imbalance, snap.ComputeImbalance)
}

func (ps *phaseSamples) report(set func(string, float64, int)) {
	n := len(ps.compute)
	if n == 0 {
		return
	}
	set("core.phase_exchange_s", median(ps.exchange), n)
	set("core.phase_ghostmerge_s", median(ps.ghostMerge), n)
	set("core.phase_compute_s", median(ps.compute), n)
	set("core.phase_output_s", median(ps.output), n)
	set("core.phase_barrier_s", median(ps.barrier), n)
	set("core.compute_imbalance", median(ps.imbalance), n)
	set("core.step_overhead_frac", median(ps.overhead), n)
}
