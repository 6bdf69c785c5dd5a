package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/voronoi"
)

// haloMock is the postproc-clustered input: 24^3 particles of the default
// halo mock (seed 1 unless given) in a periodic 24-box.
func haloMock(seed int64) []diy.Particle {
	p := cosmo.DefaultClusterParams()
	if seed != 0 {
		p.Seed = seed
	}
	pos := cosmo.ClusteredPositions(24*24*24, 24, p)
	ps := make([]diy.Particle, len(pos))
	for i, q := range pos {
		ps[i] = diy.Particle{ID: int64(i), Pos: q}
	}
	return ps
}

// The kernel funnel of the halo mock (RCB, 8 blocks, ghost 4, a cull at a
// tenth of the mean cell volume) at the commit that added the cull exit:
// the sweeps of kernel-culled cells stop at their first proof, so every
// funnel stage falls against sweeps run to the end, which gave the same
// cell counts with 35 256 shells, 15 247 198 gathered, 11 000 057 sorted,
// 1 839 658 tested and 258 792 cut.
func TestHaloMockKernelFunnel(t *testing.T) {
	cfg := Config{
		Domain:        geom.NewBox(geom.V(0, 0, 0), geom.V(24, 24, 24)),
		Periodic:      true,
		GhostSize:     4,
		Decomposition: DecomposeRCB,
		MinVolume:     0.1,
		Recorder:      obs.NewRecorder(8),
	}
	out, err := Run(cfg, haloMock(0), 8)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%+v", out.Counts)
	for _, name := range []string{CounterKernelShells, CounterKernelGathered, CounterKernelSorted,
		CounterKernelTested, CounterKernelCut, CounterKernelCulled} {
		var sum int64
		for _, n := range out.Obs.Counters[name] {
			sum += n
		}
		got += fmt.Sprintf(" %s=%d", name, sum)
	}
	const want = "{Sites:13824 Incomplete:0 CulledEarly:6796 CulledExact:1851 Kept:5177} kernel-shells=32226 " +
		"kernel-gathered=13956242 kernel-sorted=10966150 kernel-tested=1681355 kernel-cut=232341 kernel-culled=5678"
	if got != want {
		t.Errorf("halo mock funnel\n got %s\nwant %s", got, want)
	}
}

// The cull exit is an oracle-checked shortcut: on every site of the halo
// mock (three seeds) and of a clustered 32^3 N-body snapshot, at ghosts 1,
// 2 and 4, on grid and RCB blocks, a sweep that stopped at a proven cull
// belongs to a cell the full sweep leaves Complete and below the
// early-cull diameter, and every other cell is bit-identical to the full
// sweep's. The pipeline over the same blocks then counts what the full
// sweeps predict, with KeepIncomplete off on the grid and on under RCB,
// and kernel-culled is the number of stopped sweeps. Under the race
// detector, which slows the kernel tenfold, one seed of the halo mock at
// one ghost runs.
func TestCullExitPerSiteOracle(t *testing.T) {
	type input struct {
		name string
		ps   []diy.Particle
		L    float64
	}
	inputs := []input{{"halo1", haloMock(1), 24}}
	ghosts := []float64{4}
	if !raceEnabled {
		inputs = append(inputs, input{"halo2", haloMock(2), 24}, input{"halo3", haloMock(3), 24},
			input{"nbody32", evolvingSnapshots(t, 32, 41)[40], 32})
		ghosts = []float64{1, 2, 4}
	}
	for _, in := range inputs {
		for _, ghost := range ghosts {
			for _, kind := range []DecompKind{DecomposeRegular, DecomposeRCB} {
				cfg := Config{Domain: domainBox(in.L), Periodic: true, GhostSize: ghost, Decomposition: kind,
					MinVolume: 0.1, KeepIncomplete: kind == DecomposeRCB}
				checkCullExit(t, fmt.Sprintf("%s ghost %g decomposition %d", in.name, ghost, kind), cfg, in.ps)
			}
		}
	}
}

// checkCullExit builds the merged block indexes of one step of cfg on 8
// blocks, without computing a cell, and holds every rank's sites to the
// oracle TestCullExitPerSiteOracle states.
func checkCullExit(t *testing.T, name string, cfg Config, ps []diy.Particle) {
	t.Helper()
	const blocks = 8
	s, err := OpenSession(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.stage(storage.NewSliceSource(ps)); err != nil {
		t.Fatal(err)
	}
	if err := s.runRanks(func(rank int) error {
		rs := &s.ranks[rank]
		ghosts := rs.ex.Exchange(s.w, s.d, rank, s.parts[rank])
		rs.mergeGhosts(s.d.Block(rank), s.parts[rank], ghosts, cfg)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dc := math.Cbrt(6 * cfg.MinVolume / math.Pi)
	diamCut2 := dc * dc

	var mu sync.Mutex
	var stoppedAll, incomplete int
	var wg sync.WaitGroup
	for r := range s.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, local := &s.ranks[r], s.parts[r]
			ix, initBox := rs.bi.ix, rs.bi.initBox
			early, full := voronoi.NewScratch(), voronoi.NewScratch()
			var want CellCounts
			stopped := int64(0)
			for _, p := range local {
				a, errA := voronoi.ComputeCellReused(ix, p.Pos, p.ID, initBox, diamCut2, early)
				b, errB := voronoi.ComputeCellReused(ix, p.Pos, p.ID, initBox, 0, full)
				if errA != nil || errB != nil {
					t.Errorf("%s site %d: %v, %v", name, p.ID, errA, errB)
					return
				}
				if a == nil {
					stopped++
					if !b.Complete || !diameterBelow(b, diamCut2) {
						t.Errorf("%s site %d: the sweep stopped, but the full cell is complete %v, below the cull %v",
							name, p.ID, b.Complete, diameterBelow(b, diamCut2))
					}
				} else if !reflect.DeepEqual(a, b) {
					t.Errorf("%s site %d: the cell differs from the full sweep's", name, p.ID)
				}
				want.Sites++
				if !b.Complete {
					want.Incomplete++
					if !cfg.KeepIncomplete {
						continue
					}
				}
				switch {
				case diameterBelow(b, diamCut2):
					want.CulledEarly++
				case b.Volume() < cfg.MinVolume:
					want.CulledExact++
				default:
					want.Kept++
				}
			}
			var cb computeBuffers
			res, err := computeIndexedCells(&rs.bi, local, cfg, 1, &cb)
			if err != nil {
				t.Errorf("%s rank %d: %v", name, r, err)
				return
			}
			if res.Counts != want || res.Kernel.Culled != stopped {
				t.Errorf("%s rank %d: counts %+v, %d culled in the kernel; the full sweeps predict %+v, %d",
					name, r, res.Counts, res.Kernel.Culled, want, stopped)
			}
			mu.Lock()
			stoppedAll += int(stopped)
			incomplete += int(want.Incomplete)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if testing.Verbose() {
		t.Logf("%s: %d of %d sweeps stopped at a proven cull, %d cells incomplete", name, stoppedAll, len(ps), incomplete)
	}
}
