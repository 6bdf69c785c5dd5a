// Command tessbench regenerates the paper's performance evaluation: the
// Table II breakdown (simulation time, tessellation time split into
// exchange / Voronoi computation / output, output size) and the Figure 10
// strong- and weak-scaling series with their efficiencies.
//
// Problem sizes are scaled from the paper's Blue Gene/P runs (128^3-1024^3
// particles on 128-16384 processes) to laptop scale. The ranks exchange and
// write together but take turns at compute, each with the whole machine, and
// every phase is reduced to the slowest rank: the wall time a machine with
// one core per rank would observe (see internal/core.RunTimed). Each timed
// pass carries an obs.Recorder, and every column is read off its snapshot:
// Exch and Out are the slowest rank's exchange and output spans, Voro the
// slowest rank's ghost merge plus compute, Tess their sum.
//
// The -comm table reads the same snapshots. Its message and byte counts
// are those of a concurrent Run (the turns are barriers, which send
// nothing) and include the collective write's messages; its Imbal column
// is the compute imbalance of ranks that each computed alone.
//
// Usage:
//
//	tessbench [-sizes 8,16,32] [-procs 1,2,4,8,16] [-steps 25] [-cull 0.1]
//	          [-workers N] [-scaling] [-comm] [-datamodel] [-out DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/nbody"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tessbench: ")
	var (
		sizes     = flag.String("sizes", "8,16,32", "comma-separated particles per dimension (powers of two)")
		procs     = flag.String("procs", "1,2,4,8,16", "comma-separated process (block) counts")
		steps     = flag.Int("steps", 25, "simulation steps before tessellating the largest size (smaller sizes run proportionally more: 25 at 32^3 gives the paper's 100/50/25 schedule)")
		cull      = flag.Float64("cull", 0.10, "cull the smallest fraction of the cell volume range (the paper's 10%)")
		scaling   = flag.Bool("scaling", false, "also print the Figure 10 strong/weak scaling series")
		commTable = flag.Bool("comm", false, "also print the communication-volume table from the timed passes' observability counters")
		datamodel = flag.Bool("datamodel", false, "also print the Sec. III-C2 data model statistics")
		outDir    = flag.String("out", "", "directory for tessellation output files (default: temp, deleted)")
		workers   = flag.Int("workers", 0, "intra-rank compute workers per block (0 = GOMAXPROCS; ranks take turns at compute so each gets the whole machine)")
	)
	flag.Parse()

	sizeList, err := parseInts(*sizes)
	if err != nil {
		log.Fatalf("bad -sizes: %v", err)
	}
	procList, err := parseInts(*procs)
	if err != nil {
		log.Fatalf("bad -procs: %v", err)
	}

	dir := *outDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "tessbench")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}

	fmt.Println("TABLE II: PERFORMANCE DATA (scaled reproduction)")
	fmt.Println("Simulation runs serially (the HACC stand-in is not block-decomposed);")
	fmt.Println("Sim/P is the ideal P-way split for the in situ cost comparison.")
	fmt.Println()
	fmt.Printf("%-10s %-6s %-6s %-4s %9s %9s %9s %9s %9s %9s %10s\n",
		"Particles", "Steps", "Procs", "Thr", "Sim(s)", "Sim/P(s)", "Tess(s)",
		"Exch(s)", "Voro(s)", "Out(s)", "Size(MB)")

	type strongPoint struct {
		procs int
		tess  time.Duration
	}
	strongSeries := map[int][]strongPoint{} // ng -> series
	var commRows []commRow

	largest := sizeList[len(sizeList)-1]
	for _, ng := range sizeList {
		// Smaller problems run more steps, mirroring the paper's
		// 100/50/25-step schedule across sizes.
		nsteps := *steps * largest / ng
		sim, simTime := runSim(ng, nsteps)
		particles := tess.ParticlesFromSim(sim)

		// Derive the cull threshold from the volume range, once per size.
		minVol := cullThreshold(particles, float64(ng), *cull)

		for _, p := range procList {
			domain := geom.NewBox(geom.V(0, 0, 0), geom.V(float64(ng), float64(ng), float64(ng)))
			cfg := core.Config{
				Domain:    domain,
				Periodic:  true,
				GhostSize: ghostFor(domain, len(particles)),
				HullPass:  true,
				MinVolume: minVol,
				Workers:   *workers,
			}
			cfg.Recorder = obs.NewRecorder(p)
			path := filepath.Join(dir, fmt.Sprintf("tess-%d-%d.out", ng, p))
			out, err := core.RunTimed(cfg, particles, p, core.WithOutputPath(path))
			if err != nil {
				log.Fatalf("ng=%d procs=%d: %v", ng, p, err)
			}
			tm := tessTimeOf(out.Obs)
			// RunTimed's ranks take turns at compute, so each rank's
			// compute phase uses EffectiveWorkers(cfg, 1) threads.
			fmt.Printf("%-10s %-6d %-6d %-4d %9.2f %9.2f %9.3f %9.3f %9.3f %9.3f %10.2f\n",
				fmt.Sprintf("%d^3", ng), nsteps, p, core.EffectiveWorkers(cfg, 1),
				simTime.Seconds(), simTime.Seconds()/float64(p),
				tm.total.Seconds(), tm.exchange.Seconds(),
				tm.voro.Seconds(), tm.output.Seconds(),
				float64(out.Bytes)/1e6)
			strongSeries[ng] = append(strongSeries[ng], strongPoint{procs: p, tess: tm.total})

			if *datamodel && p == procList[0] {
				printDataModel(out)
			}
			if *commTable {
				commRows = append(commRows, commRowOf(ng, p, out.Obs))
			}
		}
		fmt.Println()
	}

	if *commTable {
		printCommTable(commRows)
	}

	if *scaling {
		fmt.Println("FIGURE 10 (left): STRONG SCALING — tessellation time vs processes")
		fmt.Printf("%-10s %-6s %12s %12s\n", "Particles", "Procs", "Tess(s)", "Efficiency")
		for _, ng := range sizeList {
			series := strongSeries[ng]
			sort.Slice(series, func(i, j int) bool { return series[i].procs < series[j].procs })
			base := series[0]
			for _, pt := range series {
				eff := float64(base.procs) * base.tess.Seconds() /
					(float64(pt.procs) * pt.tess.Seconds())
				fmt.Printf("%-10s %-6d %12.4f %12.2f\n",
					fmt.Sprintf("%d^3", ng), pt.procs, pt.tess.Seconds(), eff)
			}
		}
		fmt.Println()
		weakScaling(dir, *cull, *workers)
	}
}

// tessTime is Table II's tessellation time of one timed pass: exchange,
// Voronoi (ghost merge plus compute) and output, each reduced to its
// slowest rank, and their sum.
type tessTime struct {
	total, exchange, voro, output time.Duration
}

func tessTimeOf(s *obs.Snapshot) tessTime {
	t := tessTime{
		exchange: s.SlowestRank(obs.PhaseExchange),
		voro:     s.SlowestRank(obs.PhaseGhostMerge, obs.PhaseCompute),
		output:   s.SlowestRank(obs.PhaseOutput),
	}
	t.total = t.exchange + t.voro + t.output
	return t
}

// commRow is one line of the communication-volume table. Apart from the
// imbalance, every field is a deterministic function of the inputs
// (message and byte counts do not depend on scheduling), so those columns
// are reproducible bit-for-bit.
type commRow struct {
	ng, procs       int
	msgs, sentBytes int64
	maxPairBytes    int64
	ghosts          int64
	imbalance       float64
}

// commRowOf reduces a timed pass's snapshot to a table row.
func commRowOf(ng, procs int, s *obs.Snapshot) commRow {
	row := commRow{
		ng: ng, procs: procs,
		msgs: s.TotalSentMsgs, sentBytes: s.TotalSentBytes,
		imbalance: s.ComputeImbalance,
	}
	for _, per := range s.SendBytes {
		for _, b := range per {
			if b > row.maxPairBytes {
				row.maxPairBytes = b
			}
		}
	}
	for _, g := range s.Counters[obs.CounterGhosts.String()] {
		row.ghosts += g
	}
	return row
}

func printCommTable(rows []commRow) {
	fmt.Println("COMMUNICATION VOLUME (obs counters; byte counts are deterministic)")
	fmt.Printf("%-10s %-6s %10s %10s %12s %10s %8s\n",
		"Particles", "Procs", "Msgs", "Sent(KB)", "MaxPair(KB)", "Ghosts", "Imbal")
	for _, r := range rows {
		fmt.Printf("%-10s %-6d %10d %10.1f %12.1f %10d %8.2f\n",
			fmt.Sprintf("%d^3", r.ng), r.procs, r.msgs,
			float64(r.sentBytes)/1e3, float64(r.maxPairBytes)/1e3,
			r.ghosts, r.imbalance)
	}
	fmt.Println()
}

// runSim evolves an ng^3 simulation for nsteps and returns it with the
// wall time.
func runSim(ng, nsteps int) (*nbody.Simulation, time.Duration) {
	cfg := nbody.DefaultConfig(ng)
	sim, err := nbody.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	sim.Run(nsteps, nil)
	return sim, time.Since(t0)
}

// cullThreshold computes the volume cutting the smallest `frac` of the
// volume range, from an uncolled single-block pass.
func cullThreshold(particles []diy.Particle, L float64, frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	cfg := core.Config{
		Domain:    geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)),
		Periodic:  true,
		GhostSize: 4,
	}
	out, err := core.RunTimed(cfg, particles, 1)
	if err != nil {
		log.Fatalf("cull pre-pass: %v", err)
	}
	vols := out.Volumes()
	if len(vols) == 0 {
		return 0
	}
	lo, hi := vols[0], vols[0]
	for _, v := range vols {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo + frac*(hi-lo)
}

func printDataModel(out *core.Output) {
	var t meshio.Stats
	for _, m := range out.Meshes {
		t = t.Add(m.ComputeStats())
	}
	fmt.Printf("  data model: %.1f faces/cell, %.1f verts/face, %.1f refs/vertex, "+
		"%.0f B/particle (%.0f%% geometry, %.0f%% connectivity)\n",
		t.FacesPerCell, t.VertsPerFace, t.VertSharing, t.BytesPerParticle,
		100*float64(t.GeometryBytes)/float64(t.TotalBytes), 100*float64(t.ConnectivityBytes)/float64(t.TotalBytes))
}

// weakScaling runs the Figure 10 (right) experiment: fixed particles per
// process across (8^3, 1), (16^3, 8), (32^3, 64).
func weakScaling(dir string, cull float64, workers int) {
	fmt.Println("FIGURE 10 (right): WEAK SCALING — tessellation time per particle")
	fmt.Printf("%-10s %-6s %16s %12s\n", "Particles", "Procs", "Tess/np(us)", "Efficiency")
	type wk struct {
		ng, procs int
	}
	series := []wk{{8, 1}, {16, 8}, {32, 64}}
	var base float64
	for i, s := range series {
		sim, _ := runSim(s.ng, 4)
		particles := tess.ParticlesFromSim(sim)
		minVol := cullThreshold(particles, float64(s.ng), cull)
		domain := geom.NewBox(geom.V(0, 0, 0), geom.V(float64(s.ng), float64(s.ng), float64(s.ng)))
		cfg := core.Config{
			Domain:    domain,
			Periodic:  true,
			GhostSize: ghostFor(domain, len(particles)),
			HullPass:  true,
			MinVolume: minVol,
			Workers:   workers,
		}
		cfg.Recorder = obs.NewRecorder(s.procs)
		path := filepath.Join(dir, fmt.Sprintf("weak-%d.out", s.ng))
		out, err := core.RunTimed(cfg, particles, s.procs, core.WithOutputPath(path))
		if err != nil {
			log.Fatalf("weak ng=%d: %v", s.ng, err)
		}
		perParticle := tessTimeOf(out.Obs).total.Seconds() / float64(len(particles)) * 1e6
		if i == 0 {
			base = perParticle
		}
		// Ideal weak scaling: per-particle time falls as 1/P when work per
		// rank is constant; efficiency relative to that ideal.
		ideal := base * float64(series[0].procs) / float64(s.procs)
		fmt.Printf("%-10s %-6d %16.3f %12.2f\n",
			fmt.Sprintf("%d^3", s.ng), s.procs, perParticle, ideal/perParticle)
	}
}

// ghostFor is the library's own ghost estimate (core.EstimateGhost): four
// mean particle spacings, clamped to half the box.
func ghostFor(domain geom.Box, particles int) float64 {
	g, err := core.EstimateGhost(core.Config{Domain: domain, Periodic: true}, particles)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("non-positive value %d", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
