package main

import (
	"flag"
	"fmt"
	"io"

	"repro"
	"repro/internal/voronoi"
)

// accuracy regenerates Table I of the paper: the accuracy of the parallel
// tessellation versus a serial reference as a function of ghost zone size
// and block count. The paper ran 64^3 particles for 100 steps; the default
// here is 16^3 for 60 steps (pass -ng/-steps to change).
//
// Cells are compared by particle ID: a parallel cell matches when its face
// count equals the reference's and its volume agrees to relative tolerance.
// Incomplete cells are kept (not deleted) so that the damage done by an
// insufficient ghost region is measured rather than hidden, exactly as in
// the paper's study.
//
// Usage:
//
//	tess accuracy [-ng 16] [-steps 60] [-ghosts 0,1,2,3,4] [-blocks 2,4,8]
func accuracy(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tess accuracy", flag.ContinueOnError)
	var (
		ng     = fs.Int("ng", 16, "particles per dimension (power of two)")
		steps  = fs.Int("steps", 60, "simulation steps before tessellating")
		ghosts = fs.String("ghosts", "0,1,2,3,4", "ghost sizes to test")
		blocks = fs.String("blocks", "2,4,8", "block counts to test")
		tol    = fs.Float64("tol", 1e-6, "relative volume tolerance for a match")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ghostList, err := parseFloats(*ghosts)
	if err != nil {
		return fmt.Errorf("bad -ghosts: %w", err)
	}
	blockList, err := parseInts(*blocks)
	if err != nil {
		return fmt.Errorf("bad -blocks: %w", err)
	}

	// Evolve the particles.
	sim, err := tess.NewSimulation(tess.NewSimConfig(*ng))
	if err != nil {
		return err
	}
	sim.Run(*steps, nil)

	// Serial reference: the full periodic tessellation in one piece.
	ids := make([]int64, len(sim.Pos))
	for i := range ids {
		ids[i] = int64(i)
	}
	cells, err := voronoi.ComputePeriodic(sim.Pos, ids, sim.Config.BoxSize, 0)
	if err != nil {
		return err
	}
	ref := make([]tess.CellSummary, len(cells))
	for i, c := range cells {
		ref[i] = tess.CellSummary{
			ID: c.SiteID, Site: c.Site, Volume: c.Volume(), Area: c.Area(),
			Faces: len(c.Faces), Complete: c.Complete,
		}
	}

	fmt.Fprintf(w, "TABLE I: PARALLEL ACCURACY (%d^3 particles, %d steps)\n\n", *ng, *steps)
	fmt.Fprintf(w, "%-10s %-16s %-8s %-15s %-10s\n",
		"GhostSize", "Cells in Serial", "Blocks", "MatchingCells", "%Accuracy")
	for _, g := range ghostList {
		for bi, b := range blockList {
			cfg := tess.NewPeriodicConfig(sim.Config.BoxSize, tess.WithGhostSize(g))
			cfg.KeepIncomplete, cfg.HullPass = true, true
			out, err := tess.Run(cfg, tess.ParticlesFromSim(sim), b)
			if err != nil {
				return fmt.Errorf("ghost=%g blocks=%d: %w", g, b, err)
			}
			rep := tess.CompareAccuracy(ref, out.Summaries(), *tol)
			serialCol, ghostCol := "", ""
			if bi == 0 {
				serialCol = fmt.Sprintf("%d", len(ref))
				ghostCol = fmt.Sprintf("%g", g)
			}
			fmt.Fprintf(w, "%-10s %-16s %-8d %-15d %-10.2f\n",
				ghostCol, serialCol, b, rep.Matching, 100*rep.Accuracy)
		}
	}
	return nil
}
