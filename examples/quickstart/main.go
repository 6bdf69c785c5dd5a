// Quickstart: tessellate a random point set with the public tess API,
// print summary statistics, and export the mesh for visualization.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	tess "repro"
	"repro/internal/meshio"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)

	// 1000 random unit-mass particles in a periodic 10^3 box.
	const L = 10.0
	rng := rand.New(rand.NewSource(42))
	pos := make([]tess.Vec3, 1000)
	for i := range pos {
		pos[i] = tess.Vec3{X: rng.Float64() * L, Y: rng.Float64() * L, Z: rng.Float64() * L}
	}
	particles := tess.ParticlesFromPositions(pos)

	// Tessellate over 8 parallel blocks. The ghost size must exceed twice
	// the largest expected cell radius; 3 units is generous for ~1-unit
	// mean spacing.
	cfg := tess.NewPeriodicConfig(L)
	cfg.GhostSize = 3
	out, err := tess.Run(cfg, particles, 8)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tessellated %d particles into %d cells "+
		"(exchange %v, compute %v)\n",
		len(particles), out.Counts.Kept, out.Timing.Exchange, out.Timing.Compute)

	// Cell volumes partition the box.
	vols := out.Volumes()
	m := stats.ComputeMoments(vols)
	var total float64
	for _, v := range vols {
		total += v
	}
	fmt.Printf("volume: total %.3f (box %.0f), mean %.3f, min %.3f, max %.3f\n",
		total, L*L*L, m.Mean, m.Min, m.Max)
	fmt.Printf("volume distribution: skewness %.2f, kurtosis %.2f\n", m.Skewness, m.Kurtosis)

	// Per-cell rows: ID, position, volume, area, face count.
	sums := out.Summaries()
	fmt.Printf("first cell: id=%d site=%v volume=%.3f area=%.3f faces=%d\n",
		sums[0].ID, sums[0].Site, sums[0].Volume, sums[0].Area, sums[0].Faces)

	// Export everything as legacy VTK for ParaView-style inspection.
	f, err := os.Create("quickstart.vtk")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var meshes []*meshio.BlockMesh
	meshes = append(meshes, out.Meshes...)
	if err := meshio.WriteVTK(f, meshes); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote quickstart.vtk")
}
