package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/meshio"
	"repro/internal/stats"
)

// info inspects a tess output file: per-block shape, the Sec. III-C2
// data-model statistics, and volume summary statistics. It is the quick
// sanity check for files produced by the in situ pipeline before loading
// them into heavier postprocessing.
//
// Usage:
//
//	tess info [-blocks] [-stats] FILE
func info(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tess info", flag.ContinueOnError)
	var (
		perBlock  = fs.Bool("blocks", false, "print a row per block")
		showStats = fs.Bool("stats", true, "print volume statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tess info [-blocks] [-stats] FILE")
	}
	path := fs.Arg(0)

	meshes, err := readMeshes(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d blocks\n", path, len(meshes))

	var totals meshio.Stats
	var vols []float64
	var incomplete int
	if *perBlock {
		fmt.Fprintf(w, "%-6s %8s %8s %10s %12s %12s\n",
			"block", "cells", "verts", "faces/cell", "verts/face", "B/particle")
	}
	for bi, m := range meshes {
		s := m.ComputeStats()
		totals.Cells += s.Cells
		totals.Faces += s.Faces
		totals.FaceVertRefs += s.FaceVertRefs
		totals.UniqueVerts += s.UniqueVerts
		totals.GeometryBytes += s.GeometryBytes
		totals.ConnectivityBytes += s.ConnectivityBytes
		vols = append(vols, m.Volumes...)
		for _, c := range m.Complete {
			if !c {
				incomplete++
			}
		}
		if *perBlock {
			fmt.Fprintf(w, "%-6d %8d %8d %10.1f %12.1f %12.0f\n",
				bi, s.Cells, s.UniqueVerts, s.FacesPerCell, s.VertsPerFace, s.BytesPerParticle)
		}
	}

	fmt.Fprintf(w, "cells %d (%d incomplete)   vertices %d\n",
		totals.Cells, incomplete, totals.UniqueVerts)
	if totals.Cells > 0 && totals.Faces > 0 {
		fmt.Fprintf(w, "data model: %.1f faces/cell, %.1f verts/face, %.0f B/particle "+
			"(%.0f%% geometry / %.0f%% connectivity)\n",
			float64(totals.Faces)/float64(totals.Cells),
			float64(totals.FaceVertRefs)/float64(totals.Faces),
			float64(totals.GeometryBytes+totals.ConnectivityBytes)/float64(totals.Cells),
			100*float64(totals.GeometryBytes)/float64(totals.GeometryBytes+totals.ConnectivityBytes),
			100*float64(totals.ConnectivityBytes)/float64(totals.GeometryBytes+totals.ConnectivityBytes))
	}
	if *showStats && len(vols) > 0 {
		m := stats.ComputeMoments(vols)
		fmt.Fprintf(w, "volumes: mean %.4f  min %.4f  max %.4f  skewness %.2f  kurtosis %.2f\n",
			m.Mean, m.Min, m.Max, m.Skewness, m.Kurtosis)
		fmt.Fprintf(w, "quartiles: %.4f / %.4f / %.4f\n",
			stats.Quantile(vols, 0.25), stats.Quantile(vols, 0.5), stats.Quantile(vols, 0.75))
	}
	return nil
}
