package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/voids"
)

// voidsVerb is the postprocessing tool standing in for the paper's
// ParaView cosmology-tools plugin (Sec. III-D, Fig. 7): it reads a tess
// output file, applies a volume threshold, labels connected components
// (voids), and prints the Minkowski functionals and shapefinders of each
// component. With -sweep it reproduces the Figure 9 experiment instead:
// progressive thresholds revealing a small number of distinct voids.
//
// When no input file is given, it generates one by running the built-in
// simulation and tessellating in situ (convenient for a self-contained
// demo).
//
// Usage:
//
//	tess voids [-in FILE] [-minvol 1.0] [-sweep 0,0.5,0.75,1.0] [-top 10]
//	           [-ng 16] [-steps 60]
func voidsVerb(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tess voids", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "tess output file (empty: simulate and tessellate first)")
		minvol = fs.Float64("minvol", 0, "volume threshold; 0 picks the mean cell volume")
		sweep  = fs.String("sweep", "", "comma-separated thresholds for the Fig. 9 sweep (overrides -minvol)")
		top    = fs.Int("top", 10, "print at most this many components")
		ng     = fs.Int("ng", 16, "self-demo: particles per dimension")
		steps  = fs.Int("steps", 100, "self-demo: simulation steps")
		grav   = fs.Float64("G", 1.0, "self-demo: gravity coupling (1.0 forms distinct voids; the Fig. 11 schedule uses 0.5)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	path := *in
	if path == "" {
		dir, err := os.MkdirTemp("", "tessvoids")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "demo.tess")
		if err := voidsDemo(w, path, *ng, *steps, *grav); err != nil {
			return err
		}
	}
	cells, err := tess.ReadTessFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "read %d cells from %s\n", len(cells), path)

	if *sweep != "" {
		ths, err := parseFloats(*sweep)
		if err != nil {
			return fmt.Errorf("bad -sweep: %w", err)
		}
		fmt.Fprintln(w, "\nFIGURE 9: progressive volume thresholds reveal voids")
		fmt.Fprintf(w, "%-12s %-10s %-12s %-14s\n", "MinVolume", "Cells", "Components", "LargestVol")
		for _, row := range voids.ThresholdSweep(cells, ths) {
			fmt.Fprintf(w, "%-12g %-10d %-12d %-14.2f\n",
				row.MinVolume, row.Cells, row.Components, row.LargestVolume)
		}
		return nil
	}

	comps, th := voids.Label(cells, *minvol)
	if *minvol <= 0 {
		fmt.Fprintf(w, "threshold defaulted to mean cell volume %.3f\n", th)
	}
	var surviving int
	for _, c := range comps {
		surviving += len(c.CellIDs)
	}
	fmt.Fprintf(w, "%d cells survive threshold %.3f, forming %d components\n\n",
		surviving, th, len(comps))

	fmt.Fprintln(w, "FIGURE 7: Minkowski functionals of connected components")
	fmt.Fprintf(w, "%-8s %-7s %10s %10s %10s %6s %6s %8s %8s %8s\n",
		"Label", "Cells", "Volume", "Area", "Curv", "Chi", "Genus", "Thick", "Breadth", "Length")
	for i, c := range comps {
		if i >= *top {
			fmt.Fprintf(w, "... and %d more components\n", len(comps)-*top)
			break
		}
		mk := c.Functionals
		fmt.Fprintf(w, "%-8d %-7d %10.2f %10.2f %10.2f %6d %6.1f %8.3f %8.3f %8.3f\n",
			c.Label, len(c.CellIDs), mk.Volume, mk.Area, mk.MeanCurvature,
			mk.EulerChi, mk.Genus(), mk.Thickness, mk.Breadth, mk.Length)
	}
	return nil
}

// voidsDemo runs the self-contained demo pipeline, writing the
// tessellation to path.
func voidsDemo(w io.Writer, path string, ng, steps int, grav float64) error {
	fmt.Fprintf(w, "no input file: simulating %d^3 particles for %d steps (G=%g)\n", ng, steps, grav)
	simCfg := tess.NewSimConfig(ng)
	simCfg.G = grav
	sim, err := tess.NewSimulation(simCfg)
	if err != nil {
		return err
	}
	sim.Run(steps, nil)
	_, err = tessellateSim(sim, 8, tess.WithOutputPath(path))
	return err
}
