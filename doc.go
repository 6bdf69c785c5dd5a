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
// a volume threshold (with a cheap conservative pre-pass), and writes all
// blocks collectively to a single file. The paper's Quickhull geometry pass
// (Config.HullPass) is available as a cost model and cross-check; it is off
// by default because the clipping kernel already has each cell's volume.
//
// # Modes
//
// Standalone mode tessellates an in-memory particle set in one call:
//
//	cfg := tess.NewPeriodicConfig(64) // 64^3 box, ghost size auto
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
// particle-mesh N-body simulation (the HACC stand-in), through one such
// session; the hook may return an error to abort the run cleanly:
//
//	res, err := tess.RunInSitu(tess.InSituConfig{
//		Sim:    nbody.DefaultConfig(32),
//		Tess:   tess.NewPeriodicConfig(32),
//		Steps:  100,
//		Every:  10,
//		Blocks: 8,
//	}, nil)
//
// # Parallelism
//
// Work is parallel on two levels: blocks run as concurrent ranks (the
// paper's MPI processes), and within each rank the cell-compute phase fans
// out over Config.Workers goroutines with per-worker reusable scratch
// buffers, so the clipping kernels allocate almost nothing in steady
// state. Workers defaults to GOMAXPROCS divided among the concurrent
// ranks. Results are bit-identical for every worker count: cells are
// gathered in site order and no cell's arithmetic depends on the fan-out.
//
// # Postprocessing
//
// Output files are read back with ReadTessFile; FindVoids applies a volume
// threshold and connected-component labeling to identify cosmological
// voids, and each component carries its Minkowski functionals (volume,
// surface area, integrated mean curvature, Euler characteristic) and
// shapefinders (thickness, breadth, length). LabelVoids does the same in
// situ, over the meshes of a pass's Output instead of a file read back.
//
// The substrates live in internal/ packages: geom (geometry kernel), qhull
// (Quickhull convex hulls), voronoi (cell clipping), delaunay
// (tetrahedralization), dtfe (density estimation), fft/cosmo/nbody (the
// simulation), comm/diy (message passing and block parallelism), meshio
// (data model and storage), voids (void analysis), and stats (histograms
// and moments).
package tess
