package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/qhull"
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
// tenth of the mean cell volume): the sweeps of kernel-culled cells stop
// at their first proof, by the ball around the site or by the volume of
// the cell as it stands, so every funnel stage falls against sweeps run to
// the end, which gave the same cell counts with 35 256 shells, 15 247 198
// gathered, 11 000 057 sorted, 1 839 658 tested and 258 792 cut. With the
// ball alone (the exit's first form) 5 678 sweeps stopped, after 32 226
// shells, 13 956 242 gathered, 10 966 150 sorted, 1 681 355 tested and
// 232 341 cut, and 1 851 cells were culled only by their exact volume.
// kernel-boxed counts the tested planes the live vertices' box rejected,
// and kernel-volume-checks the current-cell volumes the exit evaluated.
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
	for _, name := range []obs.Counter{obs.CounterKernelShells, obs.CounterKernelGathered, obs.CounterKernelSorted,
		obs.CounterKernelTested, obs.CounterKernelCut, obs.CounterKernelBoxed, obs.CounterKernelCulled, obs.CounterKernelVolumes} {
		var sum int64
		for _, n := range out.Obs.Counters[name.String()] {
			sum += n
		}
		got += fmt.Sprintf(" %s=%d", name, sum)
	}
	const want = "{Sites:13824 Incomplete:0 CulledEarly:8647 CulledExact:0 Kept:5177} kernel-shells=29877 " +
		"kernel-gathered=11263759 kernel-sorted=10151152 kernel-tested=1245591 kernel-cut=191521 kernel-boxed=593917 " +
		"kernel-culled=8647 kernel-volume-checks=19513"
	if got != want {
		t.Errorf("halo mock funnel\n got %s\nwant %s", got, want)
	}
	// Of the sorted candidates, the queue put in order those in the buckets
	// the sweeps reached, and every shell small enough to sort whole.
	var ordered int64
	for _, n := range out.Obs.Counters[obs.CounterKernelOrdered.String()] {
		ordered += n
	}
	if ordered != 1288605 {
		t.Errorf("kernel-ordered=%d, want 1288605", ordered)
	}
	// The vertices the cuts ordered into new faces, 4.47 per cut.
	var looped int64
	for _, n := range out.Obs.Counters[obs.CounterKernelLooped.String()] {
		looped += n
	}
	if looped != 856222 {
		t.Errorf("kernel-looped=%d, want 856222", looped)
	}
}

// The cull exit is an oracle-checked shortcut: on every site of the halo
// mock (three seeds) and of a clustered 32^3 N-body snapshot, at ghosts
// 0.5, 1, 2 and 4, on grid and RCB blocks, and of the first halo mock in a
// bounded domain at ghosts 0.5 and 4, a sweep that stopped at a proven cull
// belongs to a cell the full sweep leaves Complete and below MinVolume by
// its Volume and by its hull volume, and every other cell is bit-identical
// to the full sweep's. The pipeline over the same blocks then counts what
// the full sweeps predict, with KeepIncomplete off on the grid and on
// under RCB: a stopped sweep is culled early, every other cell below
// MinVolume is culled by its exact volume, and the kept, incomplete and
// culled totals are those of sweeps run to the end. kernel-culled is the
// number of stopped sweeps. The small ghost and the bounded domain leave
// small cells against a wall or short of their security radius when the
// exit looks, so the oracle also holds the exit to its completeness test.
// Under the race detector, which slows the kernel tenfold, one seed of the
// halo mock at one ghost runs.
func TestCullExitPerSiteOracle(t *testing.T) {
	type input struct {
		name     string
		ps       []diy.Particle
		L        float64
		periodic bool
		ghosts   []float64
	}
	inputs := []input{{"halo1", haloMock(1), 24, true, []float64{4}}}
	if !raceEnabled {
		ghosts := []float64{0.5, 1, 2, 4}
		inputs[0].ghosts = ghosts
		inputs = append(inputs, input{"halo2", haloMock(2), 24, true, ghosts}, input{"halo3", haloMock(3), 24, true, ghosts},
			input{"nbody32", evolvingSnapshots(t, 32, 41)[40], 32, true, ghosts},
			input{"halo1 bounded", haloMock(1), 24, false, []float64{0.5, 4}})
	}
	for _, in := range inputs {
		for _, ghost := range in.ghosts {
			for _, kind := range []DecompKind{DecomposeRegular, DecomposeRCB} {
				cfg := Config{Domain: domainBox(in.L), Periodic: in.periodic, GhostSize: ghost, Decomposition: kind,
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
				a, errA := voronoi.ComputeCellReused(ix, p.Pos, p.ID, initBox, cfg.MinVolume, early)
				b, errB := voronoi.ComputeCellReused(ix, p.Pos, p.ID, initBox, 0, full)
				if errA != nil || errB != nil {
					t.Errorf("%s site %d: %v, %v", name, p.ID, errA, errB)
					return
				}
				want.Sites++
				if a == nil {
					stopped++
					want.CulledEarly++
					hull, err := qhull.Compute(b.Verts)
					if err != nil {
						t.Errorf("%s site %d: hull: %v", name, p.ID, err)
						continue
					}
					if !b.Complete || b.Volume() >= cfg.MinVolume || hull.Volume() >= cfg.MinVolume {
						t.Errorf("%s site %d: the sweep stopped, but the full cell is complete %v, of volume %g and hull volume %g",
							name, p.ID, b.Complete, b.Volume(), hull.Volume())
					}
					continue
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s site %d: the cell differs from the full sweep's", name, p.ID)
				}
				if !b.Complete {
					want.Incomplete++
					if !cfg.KeepIncomplete {
						continue
					}
				}
				if b.Volume() < cfg.MinVolume {
					want.CulledExact++
				} else {
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
