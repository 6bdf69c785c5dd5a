package main

import (
	"flag"
	"fmt"
	"image"
	"io"

	"repro"
	"repro/internal/multistream"
	"repro/internal/viz"
)

// render produces the paper's Figure 1 view: a PNG slice through the
// tessellated simulation box, colored by Voronoi cell density, showing
// irregular low-density voids amid clusters of high-density halos. Sites
// near the slice plane can be overlaid as markers.
//
// Input is either a tess output file (-in) or a fresh simulation
// (-ng/-steps). The slice plane, resolution, and color scale are flags.
//
// Usage:
//
//	tess render [-in FILE | -ng 16 -steps 100] [-z L/2] [-px 512] [-linear]
//	            [-marks] [-o slice.png]
func render(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tess render", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "tess output file (empty: simulate first)")
		ng     = fs.Int("ng", 16, "simulation: particles per dimension")
		steps  = fs.Int("steps", 100, "simulation: steps")
		zFlag  = fs.Float64("z", -1, "slice height (default: box center)")
		px     = fs.Int("px", 512, "image side in pixels")
		linear = fs.Bool("linear", false, "linear density color scale (default log10)")
		marks  = fs.Bool("marks", false, "overlay site markers near the slice")
		field  = fs.String("field", "density", "density (Voronoi), dtfe, or streams (multistream; simulation input only)")
		out    = fs.String("o", "slice.png", "output PNG path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var meshes []*tess.BlockMesh
	var sim *tess.Simulation // nil with -in; the multistream field needs it
	var L float64
	if *in != "" {
		var err error
		if meshes, err = readMeshes(*in); err != nil {
			return err
		}
		if L, err = cubicDomain(meshes); err != nil {
			return fmt.Errorf("%s: %w", *in, err)
		}
	} else {
		fmt.Fprintf(w, "simulating %d^3 particles for %d steps\n", *ng, *steps)
		var err error
		if sim, err = tess.NewSimulation(tess.NewSimConfig(*ng)); err != nil {
			return err
		}
		sim.Run(*steps, nil)
		L = sim.Config.BoxSize
		res, err := tessellateSim(sim, 8)
		if err != nil {
			return err
		}
		meshes = res.Meshes
	}
	var sites []tess.Vec3
	var vols []float64
	for _, m := range meshes {
		sites = append(sites, m.Particles...)
		vols = append(vols, m.Volumes...)
	}
	if *in != "" {
		fmt.Fprintf(w, "read %d cells from %s (box ~%g)\n", len(sites), *in, L)
	}

	cfg := viz.NewSliceConfig(L)
	cfg.Pixels = *px
	cfg.LogScale = !*linear
	if *zFlag >= 0 {
		cfg.Z = *zFlag
	}
	var img *image.RGBA
	var err error
	switch *field {
	case "density":
		img, err = viz.RenderDensitySlice(sites, vols, cfg)
	case "dtfe":
		m := 64
		res, derr := tess.ComputeDensity(tess.DensityConfig{GridN: m, Box: tess.Box{Max: tess.Vec3{X: L, Y: L, Z: L}}}, sites, nil)
		if derr != nil {
			return derr
		}
		if res.Sample.Degenerate > 0 {
			return fmt.Errorf("dtfe: %d degenerate samples (broken triangulation)", res.Sample.Degenerate)
		}
		img, err = viz.RenderGridSlice(res.Grid, m, int(cfg.Z/L*float64(m))%m, *px, cfg.LogScale)
	case "streams":
		if sim == nil {
			return fmt.Errorf("-field streams requires a fresh simulation (no -in)")
		}
		m := 2 * sim.Config.Ng
		ms, merr := multistream.Compute(sim.Pos, sim.Config.Ng, L, m)
		if merr != nil {
			return merr
		}
		grid := make([]float64, len(ms.Streams))
		for i, v := range ms.Streams {
			grid[i] = float64(v)
		}
		img, err = viz.RenderGridSlice(grid, m, int(cfg.Z/L*float64(m))%m, *px, false)
	default:
		return fmt.Errorf("unknown -field %q", *field)
	}
	if err != nil {
		return err
	}
	if *marks {
		viz.MarkSites(img, sites, L, cfg.Z, L/float64(*px))
	}
	if err := createWith(*out, func(f io.Writer) error { return viz.WritePNG(f, img) }); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%dx%d, slice z=%.2f)\n", *out, *px, *px, cfg.Z)
	return nil
}

// cubicDomain returns the side of the domain a tess file covers — the
// union of its blocks' extents — which the slice renderer needs to be the
// cube [0, L)^3.
func cubicDomain(meshes []*tess.BlockMesh) (float64, error) {
	if len(meshes) == 0 {
		return 0, fmt.Errorf("no blocks")
	}
	dom := meshes[0].Extents
	for _, m := range meshes[1:] {
		dom = dom.ExtendPoint(m.Extents.Min).ExtendPoint(m.Extents.Max)
	}
	s := dom.Size()
	if dom.Min != (tess.Vec3{}) || s.X != s.Y || s.Y != s.Z || s.X <= 0 {
		return 0, fmt.Errorf("domain %v..%v is not a cube [0, L)^3, which the slice renderer assumes", dom.Min, dom.Max)
	}
	return s.X, nil
}
