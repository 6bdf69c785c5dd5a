package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/diy"
	"repro/internal/meshio"
	"repro/internal/obs"
)

// Partition of unity as a property test: in a periodic box the Voronoi cells
// tile the domain exactly, so the kept volumes must sum to the box volume to
// within 1e-9 relative error for every decomposition and worker count. This
// is the paper's strongest correctness invariant (every particle's cell,
// counted once, no matter which block computed it).
func TestVolumePartitionProperty(t *testing.T) {
	const L = 8.0
	cases := []struct {
		name    string
		seed    int64
		n       int
		amp     float64
		blocks  int
		workers int
		ghost   float64 // 0 = baseConfig default
	}{
		{"uniform-b1-w1", 101, 8, 0.8, 1, 1, 0},
		{"uniform-b1-w4", 101, 8, 0.8, 1, 4, 0},
		{"uniform-b2-w1", 101, 8, 0.8, 2, 1, 0},
		{"uniform-b2-w4", 101, 8, 0.8, 2, 4, 0},
		{"uniform-b8-w1", 101, 8, 0.8, 8, 1, 0},
		{"uniform-b8-w4", 101, 8, 0.8, 8, 4, 0},
		{"clustered-b2-w4", 202, 6, 0.3, 2, 4, 0},
		{"clustered-b8-w4", 202, 6, 0.3, 8, 4, 0},
		// Sparse cells are large: the ghost must cover the widest cell or
		// the exchange under-resolves the tessellation.
		{"sparse-b8-w1", 303, 4, 0.9, 8, 1, 3.9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			ps := perturbedParticles(rng, tc.n, L, tc.amp)
			cfg := baseConfig(L)
			cfg.Workers = tc.workers
			if tc.ghost > 0 {
				cfg.GhostSize = tc.ghost
			}
			out, err := Run(cfg, ps, tc.blocks)
			if err != nil {
				t.Fatal(err)
			}
			if got := int(out.Counts.Kept); got != len(ps) {
				t.Fatalf("kept %d cells, want %d", got, len(ps))
			}
			var sum float64
			for _, v := range out.Volumes() {
				if v <= 0 {
					t.Fatalf("non-positive cell volume %g", v)
				}
				sum += v
			}
			want := L * L * L
			if rel := math.Abs(sum-want) / want; rel > 1e-9 {
				t.Errorf("volumes sum to %.15g, want %.15g (rel err %.3g > 1e-9)", sum, want, rel)
			}
		})
	}
}

// Cross-decomposition determinism: the same particles tessellated with 1, 2,
// and 8 blocks must merge to byte-identical global meshes. Block-local
// geometry drifts at the ulp level with the decomposition (clip order and
// the block-dependent initial box), so this exercises the canonical merge's
// full vertex re-derivation — any topology difference or nondeterministic
// ordering anywhere in the pipeline breaks the byte comparison.
func TestCrossDecompositionByteIdentical(t *testing.T) {
	const L = 8.0
	for _, seed := range []int64{7, 19} {
		rng := rand.New(rand.NewSource(seed))
		ps := perturbedParticles(rng, 6, L, 0.7)
		var ref *meshio.BlockMesh
		var refBlocks int
		for _, blocks := range []int{1, 2, 8} {
			out, err := Run(baseConfig(L), ps, blocks)
			if err != nil {
				t.Fatalf("seed %d blocks %d: %v", seed, blocks, err)
			}
			merged, err := meshio.MergeCanonical(out.Meshes, domainBox(L), true)
			if err != nil {
				t.Fatalf("seed %d blocks %d merge: %v", seed, blocks, err)
			}
			if merged.NumCells() != len(ps) {
				t.Fatalf("seed %d blocks %d: merged %d cells, want %d", seed, blocks, merged.NumCells(), len(ps))
			}
			if ref == nil {
				ref, refBlocks = merged, blocks
				// The canonical volumes must still tile the box.
				var sum float64
				for _, v := range merged.Volumes {
					sum += v
				}
				if rel := math.Abs(sum-L*L*L) / (L * L * L); rel > 1e-9 {
					t.Fatalf("seed %d: canonical volumes sum rel err %.3g", seed, rel)
				}
				continue
			}
			if !reflect.DeepEqual(ref, merged) {
				t.Errorf("seed %d: %d-block merge differs from %d-block merge (%d vs %d vertices)",
					seed, blocks, refBlocks, len(merged.Verts), len(ref.Verts))
			}
		}
	}
}

// The concurrent driver must populate Output.Obs with spans for every
// pipeline phase on every rank and with pipeline counters consistent with
// the pipeline's own counts.
func TestRunRecorderSnapshot(t *testing.T) {
	const L = 8.0
	rng := rand.New(rand.NewSource(42))
	ps := perturbedParticles(rng, 6, L, 0.8)
	cfg := baseConfig(L)
	const blocks = 4
	cfg.Recorder = obs.NewRecorder(blocks)
	out, err := Run(cfg, ps, blocks, WithOutputPath(t.TempDir()+"/mesh.bin"))
	if err != nil {
		t.Fatal(err)
	}
	s := out.Obs
	if s == nil {
		t.Fatal("Output.Obs is nil with a recorder configured")
	}
	if s.Ranks != blocks {
		t.Fatalf("snapshot over %d ranks, want %d", s.Ranks, blocks)
	}
	for rank := 0; rank < blocks; rank++ {
		seen := map[obs.Phase]bool{}
		for _, sp := range s.Spans {
			if int(sp.Rank) == rank {
				seen[sp.Phase] = true
			}
		}
		for _, ph := range []obs.Phase{obs.PhaseExchange, obs.PhaseGhostMerge, obs.PhaseCompute, obs.PhaseOutput} {
			if !seen[ph] {
				t.Errorf("rank %d has no %s span", rank, ph)
			}
		}
	}
	if s.TotalSentBytes == 0 || s.TotalSentBytes != s.TotalRecvdBytes {
		t.Errorf("comm bytes: sent %d, received %d", s.TotalSentBytes, s.TotalRecvdBytes)
	}
	sumCounter := func(name obs.Counter) int64 {
		var tot int64
		for _, v := range s.Counters[name.String()] {
			tot += v
		}
		return tot
	}
	if got := sumCounter(obs.CounterSites); got != out.Counts.Sites {
		t.Errorf("sites counter %d, want %d", got, out.Counts.Sites)
	}
	if got := sumCounter(obs.CounterCellsKept); got != out.Counts.Kept {
		t.Errorf("cells-kept counter %d, want %d", got, out.Counts.Kept)
	}
	if got := sumCounter(obs.CounterGhosts); got != int64(out.Ghosts) {
		t.Errorf("ghosts counter %d, want %d", got, out.Ghosts)
	}
	if s.ComputeImbalance < 1.0 {
		t.Errorf("compute imbalance %g < 1", s.ComputeImbalance)
	}
}

// The kernel-* counters expose the clipping sweep's candidate funnel per
// rank: each stage is a subset of the one before, every site visits a shell
// and is cut by at least the planes that became its faces, and the counts
// are a function of the input alone — the same whatever the worker fan-out.
// With a volume cut, kernel-culled counts the sweeps stopped at a proven
// early cull, which are exactly the step's early-culled cells; without one,
// none.
// kernel-boxed counts planes that were tested and did not cut, and it and
// kernel-volume-checks are as much a function of the input as the rest.
// So is kernel-looped, the vertices ordered into cut faces: every face of
// a kept cell was ordered as a cut face of three vertices or more.
func TestKernelCountersFunnel(t *testing.T) {
	const L = 8.0
	const blocks = 2
	funnel := []obs.Counter{obs.CounterKernelShells, obs.CounterKernelGathered, obs.CounterKernelSorted, obs.CounterKernelOrdered,
		obs.CounterKernelTested, obs.CounterKernelCut}
	for _, row := range []struct {
		ps        []diy.Particle
		minVolume float64
	}{
		{perturbedParticles(rand.New(rand.NewSource(43)), 6, L, 0.8), 0},
		// Clustered particles, culled at a tenth of the mean cell volume.
		{clusteredParticles(t, 512, L, 1), 0.1},
	} {
		ps, minVolume := row.ps, row.minVolume
		var first map[string][]int64
		for _, workers := range []int{1, 4} {
			cfg := baseConfig(L)
			cfg.Workers = workers
			cfg.MinVolume = minVolume
			cfg.Recorder = obs.NewRecorder(blocks)
			out, err := Run(cfg, ps, blocks)
			if err != nil {
				t.Fatal(err)
			}
			c := out.Obs.Counters
			for rank := 0; rank < blocks; rank++ {
				sites := c[obs.CounterSites.String()][rank]
				faces := int64(len(out.Meshes[rank].Neighbors))
				if c[obs.CounterKernelShells.String()][rank] < sites || c[obs.CounterKernelCut.String()][rank] < faces || faces == 0 {
					t.Errorf("min volume %g workers %d rank %d: %d shells for %d sites, %d cuts for %d faces",
						minVolume, workers, rank, c[obs.CounterKernelShells.String()][rank], sites, c[obs.CounterKernelCut.String()][rank], faces)
				}
				// From gathered on, each stage is drawn from the one before.
				for i := 2; i < len(funnel); i++ {
					if c[funnel[i].String()][rank] > c[funnel[i-1].String()][rank] {
						t.Errorf("min volume %g workers %d rank %d: %s %d exceeds %s %d", minVolume, workers, rank,
							funnel[i], c[funnel[i].String()][rank], funnel[i-1], c[funnel[i-1].String()][rank])
					}
				}
				if looped := c[obs.CounterKernelLooped.String()][rank]; looped < 3*faces {
					t.Errorf("min volume %g workers %d rank %d: %d vertices looped for %d faces",
						minVolume, workers, rank, looped, faces)
				}
				if boxed, missed := c[obs.CounterKernelBoxed.String()][rank], c[obs.CounterKernelTested.String()][rank]-c[obs.CounterKernelCut.String()][rank]; boxed > missed {
					t.Errorf("min volume %g workers %d rank %d: %d planes boxed of %d tested that did not cut",
						minVolume, workers, rank, boxed, missed)
				}
			}
			culled := c[obs.CounterKernelCulled.String()][0] + c[obs.CounterKernelCulled.String()][1]
			if minVolume > 0 && (culled == 0 || culled != out.Counts.CulledEarly) || minVolume == 0 && culled != 0 {
				t.Errorf("min volume %g workers %d: kernel-culled %d, %d culled early", minVolume, workers, culled, out.Counts.CulledEarly)
			}
			if vols := c[obs.CounterKernelVolumes.String()][0] + c[obs.CounterKernelVolumes.String()][1]; minVolume == 0 && vols != 0 {
				t.Errorf("no volume cut, but kernel-volume-checks %d", vols)
			}
			if first == nil {
				first = c
				continue
			}
			for _, name := range append(funnel, obs.CounterKernelBoxed, obs.CounterKernelCulled, obs.CounterKernelVolumes, obs.CounterKernelLooped) {
				if !reflect.DeepEqual(c[name.String()], first[name.String()]) {
					t.Errorf("min volume %g: %s: %v with %d workers, %v with 1", minVolume, name, c[name.String()], workers, first[name.String()])
				}
			}
		}
	}
}

// RunTimed must produce the same snapshot structure, including the split
// ghost-merge/compute spans and the comm counters of the real exchange and
// the collective write.
func TestRunTimedRecorderSnapshot(t *testing.T) {
	const L = 8.0
	rng := rand.New(rand.NewSource(42))
	ps := perturbedParticles(rng, 5, L, 0.8)
	cfg := baseConfig(L)
	const blocks = 2
	cfg.Recorder = obs.NewRecorder(blocks)
	out, err := RunTimed(cfg, ps, blocks, WithOutputPath(t.TempDir()+"/mesh.bin"))
	if err != nil {
		t.Fatal(err)
	}
	s := out.Obs
	if s == nil {
		t.Fatal("Output.Obs is nil with a recorder configured")
	}
	for rank := 0; rank < blocks; rank++ {
		ph := s.PerRank[rank].Phase
		if ph.Exchange <= 0 || ph.GhostMerge <= 0 || ph.Compute <= 0 || ph.Output <= 0 {
			t.Errorf("rank %d phase breakdown has empty phases: %+v", rank, ph)
		}
	}
	if s.TotalSentBytes != s.TotalRecvdBytes {
		t.Errorf("comm bytes: sent %d, received %d", s.TotalSentBytes, s.TotalRecvdBytes)
	}
	if s.TotalSentMsgs == 0 {
		t.Error("exchange and collective write recorded no messages")
	}
}

// Under RunTimed the ranks take turns at compute: rank r's ghost-merge and
// compute spans all end before any of rank r+1's begin, so no two ranks'
// computes overlap in time, and the turns show up as barrier wait.
func TestRunTimedRanksTakeTurns(t *testing.T) {
	const L, blocks = 8.0, 4
	ps := perturbedParticles(rand.New(rand.NewSource(44)), 8, L, 0.8)
	cfg := baseConfig(L)
	cfg.Recorder = obs.NewRecorder(blocks)
	out, err := RunTimed(cfg, ps, blocks)
	if err != nil {
		t.Fatal(err)
	}
	type window struct{ start, end time.Duration }
	turns := make([]window, blocks)
	for r := range turns {
		turns[r] = window{start: math.MaxInt64}
	}
	for _, sp := range out.Obs.Spans {
		if sp.Phase != obs.PhaseGhostMerge && sp.Phase != obs.PhaseCompute {
			continue
		}
		w := &turns[sp.Rank]
		w.start, w.end = min(w.start, sp.Start), max(w.end, sp.Start+sp.Dur)
	}
	for r := 1; r < blocks; r++ {
		if turns[r].start < turns[r-1].end {
			t.Errorf("rank %d computes from %v, before rank %d finished at %v", r, turns[r].start, r-1, turns[r-1].end)
		}
	}
	if out.Obs.PerRank[blocks-1].Phase.Barrier <= 0 {
		t.Error("the last rank's turn recorded no barrier wait")
	}
}

// A recorder sized for the wrong world must be rejected up front by both
// drivers.
func TestRecorderSizeMismatch(t *testing.T) {
	const L = 8.0
	rng := rand.New(rand.NewSource(1))
	ps := perturbedParticles(rng, 4, L, 0.5)
	cfg := baseConfig(L)
	cfg.Recorder = obs.NewRecorder(3)
	if _, err := Run(cfg, ps, 2); err == nil {
		t.Error("Run accepted a recorder sized for a different world")
	}
	if _, err := RunTimed(cfg, ps, 2); err == nil {
		t.Error("RunTimed accepted a recorder sized for a different world")
	}
}
