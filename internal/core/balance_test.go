package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
)

// balanceGhost is the ghost size of every byte-identity test here. The
// completeness proof is only sound when ghost regions comfortably exceed
// cell diameters (Table I measures what happens below that), and clustered
// input has large void cells, so these oracles run with a wide ghost: at
// this size the 2-, 4-, and 8-block runs of both decompositions reproduce
// the single-block tessellation exactly (verified while choosing it).
const balanceGhost = 4.5

// clusteredParticles builds the deterministic halo-mock particle set the
// load-balance tests and benches share: tight Plummer halos over a uniform
// background (the background keeps every Voronoi cell small enough that a
// moderate ghost proves all cells complete, which the byte-identity oracle
// requires).
func clusteredParticles(t testing.TB, n int, L float64, seed int64) []diy.Particle {
	t.Helper()
	p := cosmo.DefaultClusterParams()
	p.Seed = seed
	p.BackgroundFrac = 0.4
	pos := cosmo.ClusteredPositions(n, L, p)
	ps := make([]diy.Particle, len(pos))
	for i, q := range pos {
		ps[i] = diy.Particle{ID: int64(i), Pos: q}
	}
	return ps
}

// mergedMesh canonically merges an output's meshes and returns the
// merged mesh, failing the test if any cell was incomplete (the merge oracle
// is only defined for complete tessellations).
func mergedMesh(t testing.TB, out *Output, cfg Config) *meshio.BlockMesh {
	t.Helper()
	if out.Counts.Incomplete != 0 {
		t.Fatalf("tessellation has %d incomplete cells; byte-identity oracle needs 0 "+
			"(grow the ghost or the background fraction)", out.Counts.Incomplete)
	}
	m, err := meshio.MergeCanonical(out.Meshes, cfg.Domain, cfg.Periodic)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return m
}

// The decomposition-independence oracle on clustered input: the canonical
// merged mesh must be byte-identical whether the blocks are an
// equal-volume grid or particle-balanced RCB leaves.
func TestMergeCanonicalByteIdenticalRegularVsRCB(t *testing.T) {
	const L = 12.0
	ps := clusteredParticles(t, 700, L, 42)
	for _, blocks := range []int{2, 4, 8} {
		cfg := baseConfig(L)
		cfg.GhostSize = balanceGhost
		regular, err := Run(cfg, ps, blocks)
		if err != nil {
			t.Fatalf("blocks=%d regular: %v", blocks, err)
		}
		want := mergedMesh(t, regular, cfg)

		cfg.Decomposition = DecomposeRCB
		rcb, err := Run(cfg, ps, blocks)
		if err != nil {
			t.Fatalf("blocks=%d rcb: %v", blocks, err)
		}
		got := mergedMesh(t, rcb, cfg)

		if regular.Counts != rcb.Counts {
			t.Errorf("blocks=%d: counts differ: grid %+v, rcb %+v", blocks, regular.Counts, rcb.Counts)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("blocks=%d: canonical merged mesh differs between grid and RCB", blocks)
		}
	}
}

// RunTimed must produce the same tessellation as Run under RCB (both are
// one session step; only the order of the ranks' computes differs).
func TestRunTimedRCBMatchesRun(t *testing.T) {
	const L = 12.0
	ps := clusteredParticles(t, 500, L, 7)
	cfg := baseConfig(L)
	cfg.GhostSize = balanceGhost
	cfg.Decomposition = DecomposeRCB
	a, b := runBothSchedulers(t, cfg, ps, 4)
	if !reflect.DeepEqual(mergedMesh(t, a, cfg), mergedMesh(t, b, cfg)) {
		t.Error("canonical merged mesh differs between Run and RunTimed under RCB")
	}
}

// driftedParticles translates every particle by a deterministic per-step
// displacement, wrapped into the box — an evolving workload whose motion
// eventually invalidates any fixed particle-balanced decomposition.
func driftedParticles(ps []diy.Particle, L float64, step int) []diy.Particle {
	d := geom.V(0.31, 0.17, 0.23).Scale(float64(step))
	out := make([]diy.Particle, len(ps))
	for i, p := range ps {
		out[i] = diy.Particle{ID: p.ID, Pos: cosmo.Wrap(p.Pos.Add(d), L)}
	}
	return out
}

// driftGhost is the ghost size of the stale-cut oracle below. A cut that no
// longer follows the clusters puts void cells next to block faces they were
// not next to when balanceGhost was chosen: at 4.5, step 1's cell 128
// (volume 11.7, a site 0.04 from the stale x split) loses a cutter beyond
// its block's ghost region and comes out with 21 faces instead of 22. From
// 5 up every step matches the regular-grid run; 5.5 leaves a margin
// under the periodic limit of L/2 = 6.
const driftGhost = 5.5

// A stale RCB cut under drift is still canonical: the session keeps the
// decomposition its first step cut while the particles drift away from it,
// and each step's canonical merged output must stay byte-identical to a
// standalone regular-grid run over the same particles.
func TestSessionRCBRebalanceByteIdentity(t *testing.T) {
	const L = 12.0
	const blocks = 4
	const steps = 3
	base := clusteredParticles(t, 600, L, 11)

	cfg := baseConfig(L)
	cfg.GhostSize = driftGhost
	cfg.Decomposition = DecomposeRCB
	s, err := OpenSession(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	refCfg := baseConfig(L)
	refCfg.GhostSize = driftGhost
	for step := 0; step < steps; step++ {
		ps := driftedParticles(base, L, step)
		got, err := s.Step(ps)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := Run(refCfg, ps, blocks)
		if err != nil {
			t.Fatalf("step %d reference: %v", step, err)
		}
		if got.Counts != want.Counts {
			t.Errorf("step %d: counts %+v, want %+v", step, got.Counts, want.Counts)
		}
		if !reflect.DeepEqual(mergedMesh(t, got, cfg), mergedMesh(t, want, refCfg)) {
			t.Errorf("step %d: drifted RCB session output diverges from regular-grid run", step)
		}
	}
}

// An RCB session must reject ghosts its periodic links cannot support —
// at Open, before any particles are seen.
func TestSessionRCBOversizedGhostFailsAtOpen(t *testing.T) {
	cfg := baseConfig(8)
	cfg.Decomposition = DecomposeRCB
	cfg.GhostSize = 5 // > L/2 = 4
	if _, err := OpenSession(cfg, 4); err == nil {
		t.Fatal("oversized RCB ghost accepted at Open")
	}
}

// A grid's ghost may be wider than its blocks: blocks link by box adjacency
// at the session's ghost, so blocks past the 26-neighbourhood send their
// particles too. At 27 and 64 blocks of a 12-box (sides 4 and 3), ghosts of
// 4.5 and 6 leave no cell incomplete and reproduce the 1-block and RCB
// canonical meshes byte for byte.
func TestGridGhostWiderThanBlocks(t *testing.T) {
	const L = 12.0
	inputs := map[string][]diy.Particle{
		"lattice": perturbedParticles(rand.New(rand.NewSource(12)), 12, L, 0.9),
		"halo":    clusteredParticles(t, 12*12*12, L, 9),
	}
	for _, name := range []string{"lattice", "halo"} {
		ps := inputs[name]
		for _, ghost := range []float64{4.5, 6} {
			cfg := baseConfig(L)
			cfg.GhostSize = ghost
			one, err := Run(cfg, ps, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := mergedMesh(t, one, cfg)
			for _, blocks := range []int{27, 64} {
				for _, kind := range []DecompKind{DecomposeRegular, DecomposeRCB} {
					cfg.Decomposition = kind
					out, err := Run(cfg, ps, blocks)
					if err != nil {
						t.Fatalf("%s ghost %g, %d blocks (kind %v): %v", name, ghost, blocks, kind, err)
					}
					if !reflect.DeepEqual(mergedMesh(t, out, cfg), want) {
						t.Errorf("%s ghost %g, %d blocks (kind %v): canonical mesh differs from 1 block", name, ghost, blocks, kind)
					}
				}
			}
		}
	}
}
