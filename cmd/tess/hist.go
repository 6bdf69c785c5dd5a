package main

import (
	"flag"
	"fmt"
	"io"

	"repro"
	"repro/internal/cosmo"
	"repro/internal/stats"
)

// hist regenerates the paper's distribution figures:
//
//   - Figure 8 (-mode volume): the histogram of Voronoi cell volumes at the
//     end of a run, with the skewness and kurtosis the paper annotates
//     (100 bins over [0.02, 2] (Mpc/h)^3, skewness 8.9, kurtosis 85 at
//     t = 99 in the paper's 32^3 workstation test);
//   - Figure 11 (-mode delta): the cell density contrast distribution
//     delta = (d - mean)/mean (d = 1/volume for unit-mass particles) at a
//     sequence of time steps, whose range, skewness, and kurtosis grow as
//     structure forms.
//
// Usage:
//
//	tess hist [-mode volume|delta] [-ng 16] [-steps 100] [-at 11,21,31]
//	          [-bins 100] [-blocks 8]
func hist(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tess hist", flag.ContinueOnError)
	var (
		mode   = fs.String("mode", "volume", "volume (Fig. 8) or delta (Fig. 11)")
		ng     = fs.Int("ng", 16, "particles per dimension (power of two)")
		steps  = fs.Int("steps", 100, "total simulation steps")
		at     = fs.String("at", "11,21,31", "delta mode: steps to snapshot")
		bins   = fs.Int("bins", 100, "histogram bins")
		blocks = fs.Int("blocks", 8, "parallel blocks")
		width  = fs.Int("width", 60, "histogram bar width")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim, err := tess.NewSimulation(tess.NewSimConfig(*ng))
	if err != nil {
		return err
	}
	switch *mode {
	case "volume":
		return histVolume(w, sim, *steps, *bins, *blocks, *width)
	case "delta":
		snaps, err := parseInts(*at)
		if err != nil {
			return fmt.Errorf("bad -at: %w", err)
		}
		return histDelta(w, sim, *steps, snaps, *bins, *blocks, *width)
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
}

func histVolume(w io.Writer, sim *tess.Simulation, steps, bins, blocks, width int) error {
	sim.Run(steps, nil)
	out, err := tessellateSim(sim, blocks)
	if err != nil {
		return err
	}
	vols := out.Volumes()
	m := stats.ComputeMoments(vols)

	// The paper's Figure 8 binning: 100 bins over [0.02, 2].
	h := stats.NewHistogram(0.02, 2, bins)
	h.AddAll(vols)
	fmt.Fprintf(w, "FIGURE 8: Histogram of Cell Volume at t = %d\n\n", sim.Step)
	fmt.Fprintf(w, "cells %d   bins %d   range [%g, %g]   bin width %.3g\n",
		len(vols), bins, h.Lo, h.Hi, h.BinWidth())
	fmt.Fprintf(w, "mean %.4f   skewness %.2f   kurtosis %.2f   under %d   over %d\n\n",
		m.Mean, m.Skewness, m.Kurtosis, h.Under, h.Over)
	fmt.Fprint(w, condensed(h, width))
	// The characteristic shape statistic the paper calls out: 75% of the
	// cells lie in the smallest 10% of the volume range.
	cut := m.Min + 0.1*(m.Max-m.Min)
	fmt.Fprintf(w, "\nfraction of cells in smallest 10%% of volume range: %.0f%%\n",
		100*stats.FractionBelow(vols, cut))
	return nil
}

func histDelta(w io.Writer, sim *tess.Simulation, steps int, snaps []int, bins, blocks, width int) error {
	want := map[int]bool{}
	for _, s := range snaps {
		want[s] = true
	}
	fmt.Fprintln(w, "FIGURE 11: Cell density contrast distribution over time")
	var runErr error
	sim.Run(steps, func(s *tess.Simulation) {
		if !want[s.Step] || runErr != nil {
			return
		}
		out, err := tessellateSim(s, blocks)
		if err != nil {
			runErr = fmt.Errorf("step %d: %w", s.Step, err)
			return
		}
		vols := out.Volumes()
		dens := make([]float64, len(vols))
		for i, v := range vols {
			dens[i] = 1 / v // unit masses: density is inverse volume
		}
		delta := cosmo.DensityContrast(dens)
		m := stats.ComputeMoments(delta)
		h := stats.NewHistogram(m.Min, m.Max+1e-9, bins)
		h.AddAll(delta)
		fmt.Fprintf(w, "\n--- t = %d ---\n", s.Step)
		fmt.Fprintf(w, "range [%.2f, %.2f]   bin width %.3g   skewness %.2g   kurtosis %.2g\n\n",
			m.Min, m.Max, h.BinWidth(), m.Skewness, m.Kurtosis)
		fmt.Fprint(w, condensed(h, width))
	})
	return runErr
}

// condensed prints at most ~25 bars by merging adjacent bins, keeping the
// output readable in a terminal.
func condensed(h *stats.Histogram, width int) string {
	const maxBars = 25
	merge := (len(h.Counts) + maxBars - 1) / maxBars
	out := stats.NewHistogram(h.Lo, h.Hi, (len(h.Counts)+merge-1)/merge)
	for i, c := range h.Counts {
		for k := 0; k < c; k++ {
			out.Add(h.BinCenter(i))
		}
	}
	return out.Render(width)
}
