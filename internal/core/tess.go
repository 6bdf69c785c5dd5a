// Package core implements tess, the paper's contribution: a distributed
// parallel 3D Voronoi tessellation that runs standalone or in situ with an
// N-body simulation. The per-rank pipeline follows Figure 5 of the paper:
//
//  1. exchange particles with every block within the ghost distance — the
//     26-neighborhood when the ghost is below the block side — (bidirectional,
//     targeted, with periodic boundary transforms);
//  2. compute local Voronoi cells;
//  3. (a) keep only cells sited at original particles — automatic here,
//     because cells are built per local site; (b) delete incomplete cells;
//     (c) delete cells safely below the volume threshold using a cheap
//     circumscribing-sphere bound — the clipping sweep itself stops at the
//     first cut that proves a cell complete and inside that bound, so such
//     a cell is never finished; (d) order cell vertices into faces and
//     compute volume and surface area (optionally re-deriving them through
//     the Quickhull engine, the paper's step); (e) delete any other cells
//     outside the volume thresholds;
//  4. write local sites and cells collectively to storage.
//
// Each phase is timed separately, which is what populates Table II and the
// scaling study of Figure 10.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/diy"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/qhull"
	"repro/internal/voronoi"
)

// DecompKind selects how the domain is split into blocks.
type DecompKind int

const (
	// DecomposeRegular is the paper's regular grid: equal-volume blocks in
	// a near-cubic arrangement. Simple and decomposition-state-free, but
	// on clustered particle sets the halo-heavy blocks dominate the
	// compute phase.
	DecomposeRegular DecompKind = iota
	// DecomposeRCB splits the domain by recursive coordinate bisection at
	// particle-count medians, so every block holds ~equal particle counts
	// (PARAVT's load-balancing strategy). The decomposition is built from
	// the particle positions of the run (for a Session, of its first step,
	// and kept for the session's life); output is byte-identical to the
	// regular grid after meshio.MergeCanonical.
	DecomposeRCB
)

// Config controls one tessellation pass.
type Config struct {
	// Domain is the global simulation box.
	Domain geom.Box
	// Periodic selects periodic boundary conditions (the cosmology case).
	Periodic bool
	// Decomposition selects the block decomposition strategy (default
	// DecomposeRegular).
	Decomposition DecompKind
	// GhostSize is the ghost-region thickness exchanged with neighbors, in
	// the same units as the domain. The paper recommends at least twice the
	// expected cell size; Open refuses one above GhostCeiling.
	GhostSize float64
	// MinVolume culls cells below this volume; 0 keeps everything.
	MinVolume float64
	// MaxVolume culls cells above this volume; 0 means no upper cut.
	MaxVolume float64
	// KeepIncomplete retains cells that could not be proven correct
	// (normally they are deleted, per step 3b); the accuracy study keeps
	// them to measure how wrong they are.
	KeepIncomplete bool
	// HullPass re-derives each kept cell's volume and area through the
	// Quickhull engine, mirroring the paper's use of Qhull to order cell
	// vertices and compute geometry. It is also the cross-check that the
	// two geometry engines agree. The public constructors leave it off (the
	// clipping kernel's own volume decides the cull); tessbench and accuracy
	// set it to price the paper's step 3(d).
	HullPass bool
	// Workers is the number of intra-rank worker goroutines the compute
	// phase fans cell construction out over. 0 (the default) divides the
	// process-wide worker budget (GOMAXPROCS) fairly among every
	// concurrently-running rank — of this pipeline and of every other open
	// session in the process — so a full parallel run neither
	// oversubscribes nor idles cores. Results are identical for every
	// worker count.
	Workers int
	// Recorder, when non-nil, collects per-rank phase spans, comm counters,
	// and pipeline metrics for this pass (build one with
	// obs.NewRecorder(numBlocks)). The snapshot lands in Output.Obs and can
	// be exported as a Chrome trace. A nil recorder costs one pointer test
	// per phase; results are identical either way.
	Recorder *obs.Recorder
	// StallTimeout, when positive, arms the communication stall watchdog:
	// if every rank is blocked in a comm operation (or has exited) with no
	// progress for this long, the run aborts with a wait-for-graph
	// diagnostic (comm.StallError) instead of hanging. 0 disables the
	// watchdog; disabled it costs one pointer test per comm operation.
	StallTimeout time.Duration
	// Faults, when non-nil with an enabled plan, arms the deterministic
	// fault-injection layer (see internal/faultinject): seeded per-rank
	// compute slowdowns, message delivery delays, and rank
	// crash-at-step-N. Injected crashes surface as a comm.RankError from
	// the driver; delay-only plans leave results byte-identical to a
	// fault-free run.
	Faults *faultinject.Plan

	// injector is the plan materialized once by OpenSession and shared by
	// the session's ranks.
	injector *faultinject.Injector
}

// Names of the registered pipeline counters in Config.Recorder. The
// kernel-* counters are the clipping sweep's candidate funnel
// (voronoi.KernelCounts), summed over the rank's sites: divided by
// CounterSites they say why a cell cost what it cost; kernel-culled counts
// the sites whose sweep stopped at a proven early cull. The mesh-* counters
// are the weld's: the face-vertex references of the kept cells, and the
// distinct vertices they welded to. Both are a function of the input
// alone; the stitch's own table probes depend on how the sites were
// chunked among workers, so they are not counted.
const (
	CounterGhosts         = "ghosts-recvd"
	CounterCellsKept      = "cells-kept"
	CounterSites          = "sites"
	CounterKernelShells   = "kernel-shells"
	CounterKernelGathered = "kernel-gathered"
	CounterKernelSorted   = "kernel-sorted"
	CounterKernelTested   = "kernel-tested"
	CounterKernelCut      = "kernel-cut"
	CounterKernelCulled   = "kernel-culled"
	CounterMeshVertexRefs = "mesh-vertex-refs"
	CounterMeshVerts      = "mesh-verts-welded"
)

// namedCount is one counter increment, by registry name.
type namedCount struct {
	name string
	n    int64
}

// addCounts adds the increments to rank's counters in rec, resolving the
// names on the way (idempotent; see obs.RegisterCounter), in the order
// given. A nil recorder is free.
func addCounts(rec *obs.Recorder, rank int, counts ...namedCount) {
	if rec == nil {
		return
	}
	for _, c := range counts {
		rec.Count(rank, rec.RegisterCounter(c.name), c.n)
	}
}

// countBlock adds one rank's pipeline, kernel and weld counters to rec.
// OpenSession counts a zero BlockResult before any rank starts, so every
// name is registered, in this order, before any rank counts.
func countBlock(rec *obs.Recorder, rank int, res *BlockResult) {
	if rec == nil {
		return
	}
	var refs, verts int64
	if m := res.Mesh; m != nil {
		verts, refs = int64(len(m.Verts)), int64(len(m.LoopVerts))
	}
	k := res.Kernel
	addCounts(rec, rank,
		namedCount{CounterGhosts, int64(res.Ghosts)},
		namedCount{CounterCellsKept, res.Counts.Kept},
		namedCount{CounterSites, res.Counts.Sites},
		namedCount{CounterKernelShells, k.Shells},
		namedCount{CounterKernelGathered, k.Gathered},
		namedCount{CounterKernelSorted, k.Sorted},
		namedCount{CounterKernelTested, k.Tested},
		namedCount{CounterKernelCut, k.Cut},
		namedCount{CounterKernelCulled, k.Culled},
		namedCount{CounterMeshVertexRefs, refs},
		namedCount{CounterMeshVerts, verts},
	)
}

// EffectiveWorkers resolves cfg.Workers for a run with concurrentRanks
// ranks executing at once: an explicit positive setting wins; otherwise
// the process-wide worker budget is divided fairly among every active
// rank — at least this pipeline's own concurrentRanks, plus the ranks of
// every other open session — never below one worker each. With a single pipeline this is the classic
// GOMAXPROCS / concurrentRanks division; with N concurrent sessions the
// machine is shared instead of oversubscribed N-fold. RunTimed's ranks
// compute one at a time, pass concurrentRanks == 1 and so give each rank's
// compute phase the whole machine.
func EffectiveWorkers(cfg Config, concurrentRanks int) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return sharedBudget.WorkersPerRank(concurrentRanks)
}

// Timing is the per-phase wall time of one tessellation pass, reduced to
// the slowest rank (the number a batch scheduler would observe).
type Timing struct {
	Exchange time.Duration
	Compute  time.Duration
	Output   time.Duration
	// Total is the sum of the three slowest-rank phase times above.
	Total time.Duration
	// OutputBytes is the total file size written (0 if no output).
	OutputBytes int64
}

// CellCounts tracks the fate of cells through the pipeline, summed over
// ranks.
type CellCounts struct {
	Sites       int64 // local sites tessellated
	Incomplete  int64 // deleted as incomplete (or kept if KeepIncomplete)
	CulledEarly int64 // deleted by the conservative pre-hull bound
	CulledExact int64 // deleted after exact volume computation
	Kept        int64 // cells in the output
}

// BlockResult is one rank's tessellation output.
type BlockResult struct {
	Rank   int
	Mesh   *meshio.BlockMesh
	Counts CellCounts
	// Ghosts is the number of ghost particles received.
	Ghosts int
	// Kernel is the clipping sweep's candidate funnel over the rank's sites.
	Kernel voronoi.KernelCounts
}

// blockIndex is the merged local+ghost view of one block: the spatial
// index the cell computation clips against, plus the initial clipping box
// every local site starts from.
type blockIndex struct {
	ix      *voronoi.Index
	initBox geom.Box
	bounds  geom.Box
	ghosts  int
}

// rankState is one rank's retained pipeline state: the ghost exchanger,
// the merged-point arrays and spatial index, the compute buffers and mesh
// builder. Its compute method and writeBlock are the per-rank pipeline
// body Session.stepRank runs.
type rankState struct {
	ex  *diy.Exchanger
	all []geom.Vec3 // merged local+ghost positions, local first
	ids []int64     // merged IDs, parallel to all
	ix  voronoi.Index
	bi  blockIndex
	cb  computeBuffers

	prev                 map[int64]geom.Vec3 // site positions of the previous step
	warmSites, coldSites int64               // accumulated across steps
}

// mergeGhosts is the ghost-merge sub-phase: local and ghost particles
// concatenate (local first, preserving site order) into the rank's reused
// arrays, and the spatial index the clipping kernel traverses rebuilds in
// place. The arrays grow only when the merged set outgrows them, and then
// once, to its exact length.
func (rs *rankState) mergeGhosts(block diy.Block, local, ghosts []diy.Particle, cfg Config) {
	if n := len(local) + len(ghosts); cap(rs.all) < n {
		rs.all, rs.ids = make([]geom.Vec3, 0, n), make([]int64, 0, n)
	}
	rs.all, rs.ids = rs.all[:0], rs.ids[:0]
	for _, p := range local {
		rs.all = append(rs.all, p.Pos)
		rs.ids = append(rs.ids, p.ID)
	}
	for _, p := range ghosts {
		rs.all = append(rs.all, p.Pos)
		rs.ids = append(rs.ids, p.ID)
	}
	rs.ix.Rebuild(rs.all, rs.ids, 0)
	rs.bi = blockIndex{
		ix:      &rs.ix,
		initBox: initialClipBox(block, cfg),
		bounds:  block.Bounds,
		ghosts:  len(ghosts),
	}
}

// initialClipBox is the starting clipping volume of every local site of a
// block: the block bounds grown by the ghost distance (or a relative
// epsilon when there is no ghost region, so sites on the bounds stay
// strictly inside).
func initialClipBox(block diy.Block, cfg Config) geom.Box {
	return block.Bounds.Expand(math.Max(cfg.GhostSize, 1e-9*block.Bounds.Size().MaxAbs()))
}

// compute is phases 2+3 of the pipeline for one rank: past the "compute"
// fault checkpoint, the ghosts merge into the retained spatial index and
// the local cells are built, filtered, culled and hulled through the
// retained compute buffers. Both sub-phases fall under the paper's
// "computation" time, which is the returned duration (what Timing.Compute
// reads); the recorder keeps them apart. The BlockResult
// is a loan against rs, like computeIndexedCells'.
func (rs *rankState) compute(cfg Config, rank int, block diy.Block, local, ghosts []diy.Particle, workers int) (*BlockResult, time.Duration, error) {
	rec := cfg.Recorder
	cfg.injector.Checkpoint(rank, "compute")
	t0 := time.Now()
	// One variable per span: a dropped End is then an unused variable,
	// which does not compile.
	merge := rec.Begin(rank, obs.PhaseGhostMerge)
	rs.mergeGhosts(block, local, ghosts, cfg)
	rec.End(rank, merge)
	build := rec.Begin(rank, obs.PhaseCompute)
	res, err := computeIndexedCells(&rs.bi, local, cfg, workers, &rs.cb)
	if err != nil {
		return nil, 0, err
	}
	rec.End(rank, build)
	res.Rank = rank
	elapsed := time.Since(t0)
	countBlock(rec, rank, res)
	return res, elapsed, nil
}

// writeBlock is phase 4 for one rank: the mesh is encoded and written to
// path through the collective I/O layer, which every rank of w must enter
// together. An empty path writes nothing (the output span is recorded
// either way). It returns the file size CollectiveWrite reports and the
// phase's wall time.
func writeBlock(rec *obs.Recorder, w *comm.World, rank int, mesh *meshio.BlockMesh, path string) (int64, time.Duration, error) {
	t0 := time.Now()
	sp := rec.Begin(rank, obs.PhaseOutput)
	var n int64
	if path != "" {
		payload, err := mesh.Encode()
		if err != nil {
			return 0, 0, fmt.Errorf("core: rank %d encode: %w", rank, err)
		}
		if n, err = diy.CollectiveWrite(w, rank, path, payload); err != nil {
			return 0, 0, err
		}
	}
	rec.End(rank, sp)
	return n, time.Since(t0), nil
}

// computeBuffers is the retained storage of the compute stage: per-worker
// scratch spaces and welders, one mesh fragment per ParallelFor chunk, the
// per-site error slots, and the mesh builder that stitches the fragments. A
// persistent session keeps one per rank so that at steady state the whole
// compute phase allocates only what the arenas grow by; a fresh zero value
// gives the classic single-pass behavior.
type computeBuffers struct {
	scratches []*voronoi.Scratch
	welders   []meshio.Welder
	frags     []meshio.Fragment
	errs      []error
	wcounts   []CellCounts
	mb        meshio.MeshBuilder
}

// ensure readies the buffers for a pass of n sites over workers workers in
// chunks fragments: per-worker scratches and welders and the fragments are
// created on first use (each fragment is begun by the welder that fills
// it), per-site and per-worker slots are zeroed.
func (cb *computeBuffers) ensure(workers, n, chunks int) {
	for len(cb.scratches) < workers {
		cb.scratches = append(cb.scratches, voronoi.NewScratch())
		cb.welders = append(cb.welders, meshio.Welder{})
	}
	for len(cb.frags) < chunks {
		cb.frags = append(cb.frags, meshio.Fragment{})
	}
	cb.errs = resizeZeroed(cb.errs, n)
	cb.wcounts = resizeZeroed(cb.wcounts, workers)
}

// resizeZeroed returns s resized to n elements, all zero, reusing the
// backing array when it is large enough.
func resizeZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// computeIndexedCells runs the per-site cell pipeline over a merged block
// index. The per-site loop fans out over a pool of workers goroutines
// claiming chunks of the site range from an atomic cursor. Every worker
// finishes each cell into its own voronoi.Scratch and, if the cell is
// kept, welds it at once through its own meshio.Welder into its chunk's
// retained meshio.Fragment, so a rank never holds a block's cells, only
// its mesh; one serial Stitch per rank then numbers the fragments'
// vertices in chunk order, which is site order. The result is independent
// of the worker count: the stitched mesh is byte-identical to one weld
// over the kept cells in site order (see MeshBuilder.Stitch), counts are
// accumulated per worker and summed, and each cell's arithmetic is
// untouched by the fan-out.
//
// The returned BlockResult is a loan against cb: its mesh is valid only
// until cb's next pass.
func computeIndexedCells(bi *blockIndex, local []diy.Particle, cfg Config, workers int, cb *computeBuffers) (*BlockResult, error) {
	ix, initBox := bi.ix, bi.initBox

	// Early-cull diameter bound: a convex cell with diameter d has volume
	// at most that of the ball with diameter d (isodiametric inequality),
	// so any cell whose squared diameter is below diamCut2 is safely below
	// MinVolume. Comparing squared distances skips a per-cell sqrt. The
	// kernel gets the bound too, and stops a sweep as soon as it proves
	// the cell complete and that small.
	diamCut2 := 0.0
	if cfg.MinVolume > 0 {
		dc := math.Cbrt(6 * cfg.MinVolume / math.Pi)
		diamCut2 = dc * dc
	}

	n := len(local)
	workers = voronoi.PoolWorkers(workers, n)
	chunk := voronoi.ChunkSize(n, workers)
	chunks := (n + chunk - 1) / chunk
	cb.ensure(workers, n, chunks)
	errs := cb.errs
	wcounts := cb.wcounts
	voronoi.ParallelFor(n, workers, func(lo, hi, w int) {
		s := cb.scratches[w]
		wd := &cb.welders[w]
		wd.Begin(&cb.frags[lo/chunk], bi.bounds, 0, hi-lo)
		counts := &wcounts[w]
		for i := lo; i < hi; i++ {
			p := local[i]
			cell, err := voronoi.ComputeCellReused(ix, p.Pos, p.ID, initBox, diamCut2, s)
			if err != nil {
				errs[i] = fmt.Errorf("core: cell for particle %d: %w", p.ID, err)
				continue
			}
			if cell == nil { // the sweep stopped at a proven step-3(c) cull
				counts.CulledEarly++
				continue
			}
			if !cell.Complete {
				counts.Incomplete++
				if !cfg.KeepIncomplete {
					continue
				}
			}
			// Step 3(c): conservative early cull before any exact geometry.
			if diamCut2 > 0 && diameterBelow(cell, diamCut2) {
				counts.CulledEarly++
				continue
			}
			// The clipping-derived volume is the mesh's; the cull may
			// decide on the hull's instead.
			vol := cell.Volume()
			cut := vol
			if cfg.HullPass {
				// The paper's step 3(d): run the convex hull of the cell's
				// vertices to order faces and derive volume. The hull of a
				// convex cell's vertices is the cell itself, so this agrees
				// with the clipping-derived value (asserted by tests); it is
				// kept as a faithful cost model and a live cross-check.
				if h, err := qhull.Compute(cell.Verts); err == nil {
					cut = h.Volume()
				}
			}
			if cfg.MinVolume > 0 && cut < cfg.MinVolume {
				counts.CulledExact++
				continue
			}
			if cfg.MaxVolume > 0 && cut > cfg.MaxVolume {
				counts.CulledExact++
				continue
			}
			counts.Kept++
			wd.Add(cell, vol, cell.Area())
		}
	})
	for _, err := range errs { // first error by site index, like the serial loop
		if err != nil {
			return nil, err
		}
	}
	counts := CellCounts{Sites: int64(n)}
	for _, wc := range wcounts {
		counts.Incomplete += wc.Incomplete
		counts.CulledEarly += wc.CulledEarly
		counts.CulledExact += wc.CulledExact
		counts.Kept += wc.Kept
	}
	var kernel voronoi.KernelCounts
	for _, s := range cb.scratches[:workers] {
		kernel.Add(s.TakeCounts())
	}
	mesh := cb.mb.Stitch(cb.frags[:chunks], bi.bounds)
	return &BlockResult{Mesh: mesh, Counts: counts, Ghosts: bi.ghosts, Kernel: kernel}, nil
}

// diameterBelow reports whether cellDiameter2(c) < cut2, deciding from two
// O(V) bounds where they suffice and scanning the O(V^2) pairs only in
// between. Any two vertices are within twice the largest site-vertex
// distance of each other, so a cell that small is below the cutoff (the
// 1e-12 margin covers the rounding of both sides; the bound can never cull
// a cell the scan would keep); and the distances from vertex 0 are pairs of
// the scan, so one of them at the cutoff already settles it the other way.
func diameterBelow(c *voronoi.Cell, cut2 float64) bool {
	var r2, from0 float64
	for _, v := range c.Verts {
		r2 = math.Max(r2, v.Dist2(c.Site))
		from0 = math.Max(from0, c.Verts[0].Dist2(v))
	}
	if 4*r2*(1+1e-12) < cut2 {
		return true
	}
	if from0 >= cut2 {
		return false
	}
	return cellDiameter2(c) < cut2
}

// cellDiameter2 returns the maximum squared pairwise vertex distance, for
// comparison against a squared cutoff without the sqrt.
func cellDiameter2(c *voronoi.Cell) float64 {
	var m float64
	for i := 0; i < len(c.Verts); i++ {
		for j := i + 1; j < len(c.Verts); j++ {
			m = math.Max(m, c.Verts[i].Dist2(c.Verts[j]))
		}
	}
	return m
}

// stepTotals is what the ranks of a step agree on at its end. It travels
// as one value through one Allreduce: a struct boxes into an interface with
// one allocation whatever it holds, where a bare Duration or int64 boxes
// alloc-free only below 256 — five scalar reductions made a step's
// allocation count follow its wall-clock values.
type stepTotals struct {
	Timing Timing
	Counts CellCounts
	Ghosts int64
}

// merge is the Allreduce operator: the slowest rank's phase times, and
// the sums of output bytes, cell counts and ghosts. Timing.Total is not
// reduced; StepFrom sums the reduced phases.
func (a stepTotals) merge(b stepTotals) stepTotals {
	return stepTotals{
		Timing: Timing{
			Exchange:    max(a.Timing.Exchange, b.Timing.Exchange),
			Compute:     max(a.Timing.Compute, b.Timing.Compute),
			Output:      max(a.Timing.Output, b.Timing.Output),
			OutputBytes: a.Timing.OutputBytes + b.Timing.OutputBytes,
		},
		Counts: a.Counts.add(b.Counts),
		Ghosts: a.Ghosts + b.Ghosts,
	}
}

// add returns the field-wise sum of two cell counts.
func (a CellCounts) add(b CellCounts) CellCounts {
	return CellCounts{
		Sites:       a.Sites + b.Sites,
		Incomplete:  a.Incomplete + b.Incomplete,
		CulledEarly: a.CulledEarly + b.CulledEarly,
		CulledExact: a.CulledExact + b.CulledExact,
		Kept:        a.Kept + b.Kept,
	}
}
