package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/meshio"
)

// simVerb runs the particle-mesh N-body simulation (the HACC stand-in)
// standalone, printing per-step diagnostics (kinetic energy, momentum
// drift, clustering amplitude) and optionally writing particle snapshots
// or a VTK export of the final tessellation.
//
// Usage:
//
//	tess sim [-ng 16] [-steps 50] [-every 10] [-snap-dir DIR] [-vtk FILE]
func simVerb(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tess sim", flag.ContinueOnError)
	var (
		ng      = fs.Int("ng", 16, "particles per dimension (power of two)")
		steps   = fs.Int("steps", 50, "simulation steps")
		every   = fs.Int("every", 10, "diagnostics every N steps")
		snapDir = fs.String("snap-dir", "", "write particle snapshots (text x y z) to this directory")
		vtkPath = fs.String("vtk", "", "write a VTK export of the final tessellation to this file")
		augPath = fs.String("augment", "", "write the final particles augmented with cell volume and density to this file (paper Sec. V)")
		seed    = fs.Int64("seed", 1, "initial conditions seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := tess.NewSimConfig(*ng)
	cfg.Cosmo.Seed = *seed
	sim, err := tess.NewSimulation(cfg)
	if err != nil {
		return err
	}
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%-6s %14s %14s %14s %14s\n", "step", "kinetic", "potential", "|momentum|", "sigma(delta)")
	report := func(s *tess.Simulation) {
		fmt.Fprintf(w, "%-6d %14.4f %14.4f %14.6f %14.4f\n",
			s.Step, s.KineticEnergy(), s.PotentialEnergy(), s.Momentum().Norm(), s.ClusteringAmplitude())
	}
	report(sim)
	var snapErr error
	sim.Run(*steps, func(s *tess.Simulation) {
		if *every <= 0 || s.Step%*every != 0 {
			return
		}
		report(s)
		if *snapDir != "" && snapErr == nil {
			snapErr = writeSnapshot(filepath.Join(*snapDir, fmt.Sprintf("snap-%04d.txt", s.Step)), s.Pos)
		}
	})
	if snapErr != nil {
		return snapErr
	}
	if *vtkPath == "" && *augPath == "" {
		return nil
	}

	out, err := tessellateSim(sim, 8)
	if err != nil {
		return err
	}
	if *vtkPath != "" {
		err := createWith(*vtkPath, func(f io.Writer) error { return meshio.WriteVTK(f, out.Meshes) })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote tessellation VTK to %s\n", *vtkPath)
	}
	if *augPath != "" {
		var aug []meshio.AugmentedParticle
		for _, m := range out.Meshes {
			aug = append(aug, meshio.AugmentParticles(m)...)
		}
		data, err := meshio.EncodeAugmented(aug)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*augPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d augmented particles (%d bytes, %.0f B/particle) to %s\n",
			len(aug), len(data), float64(len(data))/float64(len(aug)), *augPath)
	}
	return nil
}

func writeSnapshot(path string, pos []tess.Vec3) error {
	return createWith(path, func(f io.Writer) error {
		bw := bufio.NewWriter(f)
		for _, p := range pos {
			fmt.Fprintf(bw, "%g %g %g\n", p.X, p.Y, p.Z)
		}
		return bw.Flush()
	})
}
