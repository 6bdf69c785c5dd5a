// Density reconstruction: two tessellation-based density estimators on the
// same evolving particle set.
//
//  1. The Voronoi estimator used by the paper's Figure 11: cell density is
//     the inverse cell volume (unit masses), and the density contrast
//     delta = (d - mean)/mean steepens as structure forms — its skewness
//     and kurtosis grow with time, marking the breakdown of perturbation
//     theory.
//  2. The DTFE (Delaunay Tessellation Field Estimator) from the paper's
//     background lineage (ZOBOV, Watershed Void Finder), reconstructing a
//     continuous field that can be sampled on a grid.
//
// Run with: go run ./examples/density
package main

import (
	"fmt"
	"log"

	tess "repro"
	"repro/internal/cosmo"
	"repro/internal/dtfe"
	"repro/internal/nbody"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)

	const ng = 16
	cfg := tess.InSituConfig{
		Sim:    nbody.DefaultConfig(ng),
		Tess:   tess.NewPeriodicConfig(ng),
		Steps:  60,
		Every:  20,
		Blocks: 8,
	}

	fmt.Println("Voronoi cell density contrast over time (Figure 11):")
	fmt.Printf("%-6s %10s %10s %12s %12s\n", "step", "min", "max", "skewness", "kurtosis")
	snaps, err := tess.RunInSitu(cfg, func(s tess.Snapshot) error {
		vols := s.Output.Volumes()
		dens := make([]float64, len(vols))
		for i, v := range vols {
			dens[i] = 1 / v
		}
		delta := cosmo.DensityContrast(dens)
		m := stats.ComputeMoments(delta)
		fmt.Printf("%-6d %10.3f %10.3f %12.3f %12.3f\n",
			s.Step, m.Min, m.Max, m.Skewness, m.Kurtosis)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// DTFE on the final particle state.
	last := snaps[len(snaps)-1]
	var sites []tess.Vec3
	for _, s := range last.Output.Summaries() {
		sites = append(sites, s.Site)
	}
	res, err := tess.ComputeDensity(tess.DensityConfig{GridN: 8, Box: tess.Box{Max: tess.Vec3{X: ng, Y: ng, Z: ng}}}, sites, nil)
	if err != nil {
		log.Fatal(err)
	}
	gm := stats.ComputeMoments(res.Grid)
	fmt.Printf("\nDTFE field sampled on an 8^3 grid at step %d:\n", last.Step)
	fmt.Printf("  mean %.3f, max %.3f, skewness %.2f (clustered field reads highly skewed)\n",
		gm.Mean, gm.Max, gm.Skewness)

	// Cross-check the two estimators at the densest site.
	var densest tess.CellSummary
	densest.Volume = 1e300
	for _, s := range last.Output.Summaries() {
		if s.Volume < densest.Volume {
			densest = s
		}
	}
	voroD := 1 / densest.Volume
	field, err := dtfe.Estimate(sites, nil)
	if err != nil {
		log.Fatal(err)
	}
	dtfeD, err := field.DensityAt(densest.Site)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndensest site %v: Voronoi density %.2f, DTFE density %.2f\n",
		densest.Site, voroD, dtfeD)
}
