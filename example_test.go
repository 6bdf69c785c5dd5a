package tess_test

import (
	"fmt"
	"math/rand"
	"strings"

	tess "repro"
)

// gridPoints builds a deterministic, slightly perturbed lattice so the
// examples have stable output.
func gridPoints(n int, L float64) []tess.Vec3 {
	rng := rand.New(rand.NewSource(1))
	h := L / float64(n)
	var pos []tess.Vec3
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pos = append(pos, tess.Vec3{
					X: (float64(x)+0.5)*h + (rng.Float64()-0.5)*0.5*h,
					Y: (float64(y)+0.5)*h + (rng.Float64()-0.5)*0.5*h,
					Z: (float64(z)+0.5)*h + (rng.Float64()-0.5)*0.5*h,
				})
			}
		}
	}
	return pos
}

// ExampleRun computes a periodic parallel Voronoi tessellation.
func ExampleRun() {
	particles := tess.ParticlesFromPositions(gridPoints(6, 6))
	cfg := tess.NewPeriodicConfig(6)
	cfg.GhostSize = 3
	out, err := tess.Run(cfg, particles, 4)
	if err != nil {
		panic(err)
	}
	var total float64
	for _, v := range out.Volumes() {
		total += v
	}
	fmt.Printf("cells: %d\n", out.Counts.Kept)
	fmt.Printf("volumes sum to box volume: %.1f\n", total)
	// Output:
	// cells: 216
	// volumes sum to box volume: 216.0
}

// ExampleAutoTessellate lets the library pick and, if needed, grow the
// ghost size until every cell is proven correct.
func ExampleAutoTessellate() {
	particles := tess.ParticlesFromPositions(gridPoints(6, 6))
	cfg := tess.NewPeriodicConfig(6)
	cfg.GhostSize = 0 // request automatic determination
	out, ghost, err := tess.AutoTessellate(cfg, particles, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ghost size used: %.0f\n", ghost)
	fmt.Printf("incomplete cells: %d\n", out.Counts.Incomplete)
	// Output:
	// ghost size used: 3
	// incomplete cells: 0
}

// ExampleFindVoids runs the threshold + connected-components void finder
// on tessellation output.
func ExampleFindVoids() {
	particles := tess.ParticlesFromPositions(gridPoints(6, 6))
	cfg := tess.NewPeriodicConfig(6)
	cfg.GhostSize = 3
	out, err := tess.Run(cfg, particles, 4)
	if err != nil {
		panic(err)
	}
	// Label components in situ, straight from the pass's meshes.
	comps, _ := tess.LabelVoids(out, 0)
	fmt.Printf("in situ components computed: %v\n", len(comps) > 0)
	// Output:
	// in situ components computed: true
}

// ExampleParseToolsConfig builds the in situ analysis pipeline from a
// configuration deck.
func ExampleParseToolsConfig() {
	deck := `
[halo]
every = 10
linking_length = 0.2

[powerspec]
every = 20
`
	cfg, err := tess.ParseToolsConfig(strings.NewReader(deck))
	if err != nil {
		panic(err)
	}
	pipeline, err := tess.NewPipeline(cfg, tess.NewSimConfig(8), "")
	if err != nil {
		panic(err)
	}
	fmt.Printf("analyses enabled: %d\n", len(pipeline.Analyses))
	fmt.Printf("known tools: %v\n", tess.KnownAnalyses())
	// Output:
	// analyses enabled: 2
	// known tools: [correlation halo multistream powerspec tess voids]
}
