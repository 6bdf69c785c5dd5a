package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/meshio"
)

// The compute phase must produce bit-identical meshes and identical
// counts for every worker count: cells land by site index, counts merge by
// summation, and no cell's arithmetic depends on the fan-out.
func TestRankComputeDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	const L = 8.0
	ps := perturbedParticles(rng, 8, L, 0.8)
	cfg := baseConfig(L)
	cfg.MinVolume = 0.05 // exercise both cull stages
	cfg.HullPass = true

	d, parts, ghosts := exchangedBlocks(t, cfg, ps, 4)

	for rank := 0; rank < d.NumBlocks(); rank++ {
		var ref *meshio.BlockMesh
		var refCounts CellCounts
		for _, workers := range []int{1, 2, 3, 8} {
			res, _, err := new(rankState).compute(cfg, rank, d.Block(rank), parts[rank], ghosts[rank], workers)
			if err != nil {
				t.Fatalf("rank %d workers %d: %v", rank, workers, err)
			}
			if workers == 1 {
				ref, refCounts = res.Mesh, res.Counts
				continue
			}
			if !reflect.DeepEqual(res.Mesh, ref) {
				t.Errorf("rank %d: mesh differs between workers=1 and workers=%d", rank, workers)
			}
			if res.Counts != refCounts {
				t.Errorf("rank %d: counts differ between workers=1 (%+v) and workers=%d (%+v)",
					rank, refCounts, workers, res.Counts)
			}
		}
	}
}

// The same property through the public entry point: a full Run with an
// explicit Workers setting matches the default.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	const L = 8.0
	ps := perturbedParticles(rng, 6, L, 0.8)

	run := func(workers int) *Output {
		cfg := baseConfig(L)
		cfg.Workers = workers
		out, err := Run(cfg, ps, 2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}

	ref := run(1)
	for _, workers := range []int{2, 8} {
		out := run(workers)
		for i := range ref.Meshes {
			if !reflect.DeepEqual(out.Meshes[i], ref.Meshes[i]) {
				t.Errorf("block %d: mesh differs between Workers=1 and Workers=%d", i, workers)
			}
		}
		if out.Counts != ref.Counts {
			t.Errorf("counts differ between Workers=1 (%+v) and Workers=%d (%+v)", ref.Counts, workers, out.Counts)
		}
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if got := EffectiveWorkers(Config{Workers: 3}, 8); got != 3 {
		t.Errorf("explicit Workers=3 -> %d", got)
	}
	if got := EffectiveWorkers(Config{}, 1<<20); got != 1 {
		t.Errorf("many ranks -> %d, want floor of 1", got)
	}
	if got := EffectiveWorkers(Config{}, 0); got < 1 {
		t.Errorf("concurrentRanks=0 -> %d, want >= 1", got)
	}
}
