// Void finding: evolve a clustered particle distribution, tessellate it,
// and identify cosmological voids as connected components of large Voronoi
// cells — the paper's Figure 9 pipeline, with Minkowski functionals
// characterizing each void's geometry (Sec. III-D).
//
// Run with: go run ./examples/voids
package main

import (
	"fmt"
	"log"

	tess "repro"
	"repro/internal/nbody"
	"repro/internal/voids"
)

func main() {
	log.SetFlags(0)

	// Evolve 16^3 particles until halos and voids have formed.
	const ng = 16
	sim, err := nbody.New(nbody.DefaultConfig(ng))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("simulating 100 steps")
	sim.Run(100, func(s *nbody.Simulation) {
		if s.Step%20 == 0 {
			fmt.Print(".")
		}
	})
	fmt.Println(" done")

	cfg := tess.NewPeriodicConfig(float64(ng))
	// Evolved boxes grow large void cells; use the widest valid ghost.
	cfg.GhostSize = tess.MaxGhostFor(cfg)
	out, err := tess.Run(cfg, tess.ParticlesFromSim(sim), 8)
	if err != nil {
		log.Fatal(err)
	}
	var recs []tess.CellRecord
	for bi, m := range out.Meshes {
		recs = append(recs, voids.CellsFromMesh(m, bi)...)
	}

	// Progressive thresholding (Fig. 9): raising the minimum cell volume
	// strips away the dense regions and reveals distinct voids.
	fmt.Println("\nprogressive volume thresholds:")
	fmt.Printf("%-12s %-10s %-12s\n", "minVolume", "cells", "voids")
	for _, th := range []float64{0, 0.5, 1.0, 1.5, 2.0, 3.0} {
		comps := tess.FindVoids(recs, th)
		n := 0
		for _, c := range comps {
			n += len(c.CellIDs)
		}
		fmt.Printf("%-12.2f %-10d %-12d\n", th, n, len(comps))
	}

	// The watershed alternative (ZOBOV lineage): density basins flooded to
	// a barrier, no global threshold needed.
	zonesVoids, err := tess.FindVoidsWatershed(recs, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	zonesOnly, err := tess.FindVoidsWatershed(recs, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwatershed: %d density basins, %d voids after flooding to barrier 0.5\n",
		len(zonesOnly), len(zonesVoids))

	// Characterize the voids at a fixed threshold.
	const threshold = 2.0
	comps := tess.FindVoids(recs, threshold)
	fmt.Printf("\nvoids at threshold %.1f (largest first):\n", threshold)
	fmt.Printf("%-6s %-7s %10s %10s %8s %8s %8s\n",
		"void", "cells", "volume", "area", "thick", "breadth", "length")
	for i, c := range comps {
		if i >= 8 {
			fmt.Printf("... and %d more\n", len(comps)-8)
			break
		}
		mk := c.Functionals
		fmt.Printf("%-6d %-7d %10.2f %10.2f %8.3f %8.3f %8.3f\n",
			i+1, len(c.CellIDs), mk.Volume, mk.Area, mk.Thickness, mk.Breadth, mk.Length)
	}
}
