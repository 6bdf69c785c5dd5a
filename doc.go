// Package tess is a parallel 3D Voronoi tessellation library for analyzing
// particle data in situ with cosmological N-body simulations — a
// from-scratch Go reproduction of Peterka et al., "Meshing the Universe:
// Integrating Analysis in Cosmological Simulations" (SC 2012).
//
// The library computes the Voronoi tessellation of a periodic (or bounded)
// particle set across many blocks in parallel: each block exchanges a ghost
// region of particles with its 26-connected neighborhood (with periodic
// boundary transforms), computes the Voronoi cells of its own particles
// locally, deletes cells that cannot be proven correct, culls cells outside
// a volume threshold (the clipping kernel stops early on a cell it has
// proven complete and below the minimum), and writes all blocks
// collectively to a single file. The paper's Quickhull geometry pass
// (Config.HullPass) is available as a cost model and cross-check; it is
// off by default because the clipping kernel already has each cell's
// volume.
//
// # Modes
//
// Standalone mode tessellates an in-memory particle set in one call:
//
//	cfg := tess.NewPeriodicConfig(64) // 64^3 periodic box, ghost size 4
//	out, err := tess.Run(cfg, particles, 8)
//
// Repeated passes over the same domain (the in situ loop) keep a
// persistent Session open instead, so the world, decomposition, and all
// per-rank buffers are set up once and reused — byte-identical output, a
// fraction of the per-step cost:
//
//	sess, err := tess.Open(cfg, 8)
//	defer sess.Close()
//	for step := range steps {
//		out, err := sess.Step(particlesAt(step)) // loaned until the next Step
//		...
//	}
//
// The Session type is the engine's own (internal/core), as Config and
// Output are. It outlives its process through two small files:
// sess.Checkpoint(dir) after a step, tess.Resume(cfg, dir, 8) to continue
// at the next one with byte-identical output.
//
// In situ mode runs the tessellation at selected time steps of the built-in
// particle-mesh N-body simulation (the HACC stand-in), as the [tess] tool of
// the cosmology-tools pipeline (the paper's Figure 4): a configuration deck
// enables the tool and sets its period, the pipeline runs it through one
// session, writes each tessellated step to outputDir/tess-step-NNNN.out,
// and stops at the first failing step (Pipeline.Err names it):
//
//	deck, err := tess.ParseToolsConfig(strings.NewReader("[tess]\nevery = 10\nblocks = 8\n"))
//	p, err := tess.NewPipeline(deck, tess.NewSimConfig(32), "out")
//	err = p.Run(tess.NewSimConfig(32), 100)
//
// Each step's mesh in Go, under any Config, is the Session.Step loop above
// over tess.ParticlesFromSim, with Output.Clone for a mesh kept past the
// next Step.
//
// # Parallelism
//
// Work is parallel on two levels: blocks run as concurrent ranks (the
// paper's MPI processes), and within each rank the cell-compute phase fans
// out over Config.Workers goroutines with per-worker reusable scratch
// buffers, so the clipping kernels allocate almost nothing in steady
// state. Workers defaults to the process's one worker budget, GOMAXPROCS,
// divided among the ranks of every open session (SharedWorkerBudget).
// Results are bit-identical for every worker count: cells are gathered in
// site order and no cell's arithmetic depends on the fan-out.
//
// # Postprocessing
//
// Output files are read back with ReadTessFile; FindVoids applies a volume
// threshold and connected-component labeling to identify cosmological
// voids, and each component carries its Minkowski functionals (volume,
// surface area, integrated mean curvature, Euler characteristic) and
// shapefinders (thickness, breadth, length). LabelVoids does the same in
// situ, over the meshes of a pass's Output instead of a file read back,
// and FindVoidsWatershed floods density basins instead of thresholding.
//
// The paper's postprocessing tools are the verbs of cmd/tess (run, voids,
// hist, render, sim, tools, info, accuracy); the godoc Examples of this
// package are the tested demonstrations of the library calls.
//
// The substrates live in internal/ packages: geom (geometry kernel), qhull
// (Quickhull convex hulls), voronoi (cell clipping), delaunay
// (tetrahedralization), dtfe (density estimation), fft/cosmo/nbody (the
// simulation), comm/diy (message passing and block parallelism), meshio
// (data model and storage), voids (void analysis), and stats (histograms
// and moments).
package tess
