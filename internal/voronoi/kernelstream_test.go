package voronoi

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/geom"
	"repro/internal/nbody"
)

// kernelInput is one block of a periodic cloud as a rank of the pipeline
// indexes it: the block's own points first (the sites), then every periodic
// image of the cloud within the ghost distance of the block.
type kernelInput struct {
	name      string
	ix        *Index
	sites     int
	initBox   geom.Box
	minVolume float64 // the early cull at a tenth of the mean cell volume
}

// periodicBlock indexes the block [lo, hi)^3 of the periodic cloud pts in
// [0, L)^3 with a ghost of g; ids are the points' indices in pts.
func periodicBlock(name string, pts []geom.Vec3, L, lo, hi, g float64) kernelInput {
	block := geom.NewBox(geom.V(lo, lo, lo), geom.V(hi, hi, hi))
	initBox := block.Expand(g)
	var local, ghost []geom.Vec3
	var localIDs, ghostIDs []int64
	for i, p := range pts {
		for sx := -1.0; sx <= 1; sx++ {
			for sy := -1.0; sy <= 1; sy++ {
				for sz := -1.0; sz <= 1; sz++ {
					q := p.Add(geom.V(sx*L, sy*L, sz*L))
					switch {
					case sx == 0 && sy == 0 && sz == 0 && block.Contains(q) && q.X < hi && q.Y < hi && q.Z < hi:
						local, localIDs = append(local, q), append(localIDs, int64(i))
					case initBox.Contains(q):
						ghost, ghostIDs = append(ghost, q), append(ghostIDs, int64(i))
					}
				}
			}
		}
	}
	// Mean cell volume L^3/len(pts) is 1 on both inputs; the cull deletes
	// cells below a tenth of it, as postproc-clustered's config does.
	return kernelInput{
		name:      name,
		ix:        NewIndex(append(local, ghost...), append(localIDs, ghostIDs...), 0),
		sites:     len(local),
		initBox:   initBox,
		minVolume: 0.1,
	}
}

// kernelClouds are the kernel benchmark's two inputs: the halo mock
// postproc-clustered builds (24^3 particles, seed 1, a 24-box) and the
// 32^3 N-body snapshot insitu-uniform starts from (step 11, a 32-box).
var kernelClouds = sync.OnceValues(func() (halo, nb []geom.Vec3) {
	cp := cosmo.DefaultClusterParams()
	cp.Seed = 1
	halo = cosmo.ClusteredPositions(24*24*24, 24, cp)
	sim, err := nbody.New(nbody.DefaultConfig(32))
	if err != nil {
		panic(err)
	}
	sim.Run(11, nil)
	return halo, sim.Pos
})

// reuseAll computes every site's cell of in through s, the session's path.
func reuseAll(tb testing.TB, in kernelInput, sites []int, minVolume float64, s *Scratch) {
	for _, i := range sites {
		if _, err := ComputeCellReused(in.ix, in.ix.pts[i], in.ix.ids[i], in.initBox, minVolume, s); err != nil {
			tb.Fatalf("%s site %d: %v", in.name, i, err)
		}
	}
}

// siteRange returns the site indices 0..n-1 in order.
func siteRange(n int) []int {
	sites := make([]int, n)
	for i := range sites {
		sites[i] = i
	}
	return sites
}

// A warm Scratch builds cells through ComputeCellReused with no allocation
// at all, on a halo-mock block and an N-body block, with the cull and
// without, in an order that alternates the sites with the fewest and the
// most candidates, so that a site whose shells are all sorted in place is
// followed by one whose shells hold hundreds. The queue itself reloads from
// a small shell to a large one with no allocation either.
func TestComputeCellReusedWarmZeroAllocs(t *testing.T) {
	halo, nb := kernelClouds()
	fewest, most := int64(math.MaxInt64), int64(0) // candidates of one site
	for _, in := range []kernelInput{
		periodicBlock("halo-mock", halo, 24, 0, 12, 4),
		periodicBlock("nbody-32", nb, 32, 0, 12, 4),
	} {
		s := NewScratch()
		order, sorted := siteRange(in.sites), make([]int64, in.sites)
		for i := range order {
			reuseAll(t, in, order[i:i+1], 0, s)
			sorted[i] = s.TakeCounts().Sorted
		}
		sort.Slice(order, func(a, b int) bool { return sorted[order[a]] < sorted[order[b]] })
		fewest, most = min(fewest, sorted[order[0]]), max(most, sorted[order[len(order)-1]])
		alternating := make([]int, 0, in.sites)
		for a, b := 0, len(order)-1; a <= b; a, b = a+1, b-1 {
			alternating = append(alternating, order[a])
			if a < b {
				alternating = append(alternating, order[b])
			}
		}
		for _, minVolume := range []float64{0, in.minVolume} {
			if n := testing.AllocsPerRun(1, func() { reuseAll(t, in, alternating, minVolume, s) }); n != 0 {
				t.Errorf("%s cull %g: a warm pass made %.0f allocations, want 0", in.name, minVolume, n)
			}
		}
	}

	if fewest > smallShell || most < 20*smallShell {
		t.Errorf("sites take %d to %d candidates; the test needs a small shell and one of hundreds", fewest, most)
	}

	var q candQueue
	small, large := make([]candidate, smallShell), make([]candidate, 40*smallShell)
	for i := range large {
		large[i] = candidate{dist: float64(i % 97), idx: int32(i)}
	}
	load := func() {
		for _, a := range [][]candidate{small, large} {
			q.load(a)
			for _, ok := q.next(); ok; _, ok = q.next() {
			}
		}
	}
	load()
	if n := testing.AllocsPerRun(3, load); n != 0 {
		t.Errorf("a warm queue reloading small and large shells made %.0f allocations, want 0", n)
	}
}

// BenchmarkKernelStream times the clipping sweep alone, as the session runs
// it: ComputeCellReused through one warm Scratch over every site of a whole
// periodic input indexed with a ghost of 4, on the halo mock and the N-body
// snapshot of kernelClouds, with the early cull and without it. It reports
// ns/cell, the candidate funnel per cell and the vertices ordered into cut
// faces per cell. It is a minute's check for a
// kernel change; a claim on the stack benchmark still needs paired runs.
//
//	go test -run '^$' -bench KernelStream -benchtime 2x ./internal/voronoi
func BenchmarkKernelStream(b *testing.B) {
	halo, nb := kernelClouds()
	for _, in := range []kernelInput{
		periodicBlock("halo-mock", halo, 24, 0, 24, 4),
		periodicBlock("nbody-32", nb, 32, 0, 32, 4),
	} {
		sites := siteRange(in.sites)
		for _, cull := range []bool{false, true} {
			minVolume := 0.0
			if cull {
				minVolume = in.minVolume
			}
			b.Run(fmt.Sprintf("%s/cull=%v", in.name, cull), func(b *testing.B) {
				s := NewScratch()
				reuseAll(b, in, sites, minVolume, s)
				s.TakeCounts()
				b.ResetTimer()
				for range b.N {
					reuseAll(b, in, sites, minVolume, s)
				}
				b.StopTimer()
				cells := float64(b.N * in.sites)
				k := s.TakeCounts()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
				for _, m := range []struct {
					n    int64
					unit string
				}{
					{k.Shells, "shells/cell"}, {k.Gathered, "gathered/cell"}, {k.Sorted, "sorted/cell"},
					{k.Ordered, "ordered/cell"}, {k.Tested, "tested/cell"}, {k.Cut, "cut/cell"},
					{k.Boxed, "boxed/cell"}, {k.VolumeChecks, "volchecks/cell"}, {k.Looped, "looped/cell"},
				} {
					b.ReportMetric(float64(m.n)/cells, m.unit)
				}
			})
		}
	}
}
