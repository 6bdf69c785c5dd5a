// Command tess is the one front door to the library: the standalone
// parallel tessellation (verb run, the default) plus the paper's
// postprocessing and evaluation tools, each a verb on the public tess API.
//
//	tess [run] [flags]   tessellate a perturbed lattice or a snapshot file
//	tess hist            Fig. 8 / Fig. 11 cell-volume and density-contrast histograms
//	tess voids           Fig. 7 / Fig. 9 void components and Minkowski functionals
//	tess info            inspect a tess output file
//	tess accuracy        Table I parallel accuracy versus ghost size
//	tess render          Fig. 1 density slice as a PNG
//	tess sim             the N-body simulation standalone, with VTK export
//	tess tools           the Fig. 4 in situ analysis framework
//
// A missing verb, or a first argument starting with "-", means run; every
// verb prints its flags with -h.
//
// The run verb tessellates a perturbed-lattice particle set and reports
// cell counts, per-phase timings, and communication counters from the
// always-on observability layer. With -trace it exports the run as Chrome
// trace-event JSON: one trace thread per rank with exchange / ghost-merge /
// compute / output spans, plus counter tracks for comm bytes and pipeline
// counters. Open the file in chrome://tracing or https://ui.perfetto.dev.
//
//	tess [run] [-n 8] [-box 8] [-blocks 2] [-workers 0] [-seed 1] [-amp 0.6]
//	     [-ghost 3] [-o mesh.bin] [-trace out.json] [-canonical merged.bin]
//	     [-density 0] [-spectrum] [-density-o grid.bin]
//	     [-snapshot snap.bin [-window 4]] [-write-snapshot snap.bin [-chunks 16]]
//
// With -write-snapshot the generated lattice is written as a chunked
// snapshot file and the run stops there; with -snapshot the particles
// stream out-of-core from such a file through a bounded resident window
// (-window chunks at a time) instead of being generated in memory —
// output is byte-identical to the inline run over the same particles.
//
// With -density N the run additionally pushes the snapshot through the
// streaming density pipeline (DTFE interpolation onto an N^3 sample grid
// via a tessellation session) and prints the field statistics; -spectrum
// adds the binned power spectrum (N must be a power of two), and
// -density-o writes the raw little-endian float64 grid.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/diy"
	"repro/internal/meshio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tess: ")
	// -h already printed the verb's flags; it is not a failure.
	if err := dispatch(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// verbs maps each subcommand to its implementation; every verb parses its
// own flags from args and writes its report to w.
var verbs = []struct {
	name string
	fn   func(args []string, w io.Writer) error
}{
	{"run", run},
	{"hist", hist},
	{"voids", voidsVerb},
	{"info", info},
	{"accuracy", accuracy},
	{"render", render},
	{"sim", simVerb},
	{"tools", tools},
}

func dispatch(args []string, w io.Writer) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return run(args, w)
	}
	var names []string
	for _, v := range verbs {
		if v.name == args[0] {
			return v.fn(args[1:], w)
		}
		names = append(names, v.name)
	}
	return fmt.Errorf("unknown verb %q (want one of %s)", args[0], strings.Join(names, ", "))
}

// tessellateSim tessellates a simulation's current particles over blocks
// periodic blocks. Evolved snapshots grow large void cells, so the ghost
// is the widest a session accepts; opts say where the pass writes.
func tessellateSim(sim *tess.Simulation, blocks int, opts ...tess.StepOption) (*tess.Output, error) {
	cfg := tess.NewPeriodicConfig(sim.Config.BoxSize)
	cfg.GhostSize = tess.MaxGhostFor(cfg)
	out, err := tess.Run(cfg, tess.ParticlesFromSim(sim), blocks, opts...)
	if err != nil {
		return nil, err
	}
	if out.Counts.Incomplete > 0 {
		log.Printf("warning: %d incomplete cells deleted (ghost %g)", out.Counts.Incomplete, cfg.GhostSize)
	}
	return out, nil
}

// readMeshes decodes every block of a tess output file, in block order.
func readMeshes(path string) ([]*tess.BlockMesh, error) {
	blocks, err := diy.ReadAllBlocks(path)
	if err != nil {
		return nil, err
	}
	out := make([]*tess.BlockMesh, len(blocks))
	for bi, data := range blocks {
		if out[bi], err = meshio.DecodeBlockMesh(data); err != nil {
			return nil, fmt.Errorf("block %d: %w", bi, err)
		}
	}
	return out, nil
}

// createWith writes path through fill, reporting the first of the write
// and close errors.
func createWith(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseList parses a comma-separated flag value, skipping empty items.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) { return parseList(s, strconv.Atoi) }

func parseFloats(s string) ([]float64, error) {
	return parseList(s, func(x string) (float64, error) { return strconv.ParseFloat(x, 64) })
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tess run", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 8, "particles per dimension (n^3 total)")
		box       = fs.Float64("box", 8, "periodic box side length")
		blocks    = fs.Int("blocks", 2, "number of blocks (ranks)")
		workers   = fs.Int("workers", 0, "worker goroutines per rank (0 = auto)")
		seed      = fs.Int64("seed", 1, "lattice perturbation seed")
		amp       = fs.Float64("amp", 0.6, "perturbation amplitude (fraction of spacing)")
		ghost     = fs.Float64("ghost", 3, "ghost region size")
		decomp    = fs.String("decomp", "grid", "block decomposition: grid (equal volume) or rcb (equal particle counts)")
		outPath   = fs.String("o", "", "write block meshes to this file")
		trace     = fs.String("trace", "", "write Chrome trace-event JSON to this file")
		canonical = fs.String("canonical", "", "write the canonical merged mesh to this file")
		densityN  = fs.Int("density", 0, "density sample-grid resolution (0 = skip the density pipeline)")
		spectrum  = fs.Bool("spectrum", false, "with -density, also compute the power spectrum")
		densityO  = fs.String("density-o", "", "with -density, write the raw grid to this file")
		snapshot  = fs.String("snapshot", "", "stream particles out-of-core from this chunked snapshot file (see -write-snapshot) instead of generating a lattice")
		window    = fs.Int("window", 0, "with -snapshot, max chunks staged in memory at once (0 = unbounded)")
		writeSnap = fs.String("write-snapshot", "", "write the generated lattice to this chunked snapshot file and exit")
		chunks    = fs.Int("chunks", 16, "with -write-snapshot, number of chunks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 || *blocks <= 0 || *box <= 0 {
		return fmt.Errorf("-n, -blocks, and -box must be positive")
	}
	if *snapshot != "" && *densityN > 0 {
		return fmt.Errorf("-density needs the inline particle set; it cannot stream from -snapshot")
	}

	var ps []tess.Particle
	if *snapshot == "" {
		ps = latticeParticles(*n, *box, *amp, *seed)
	}
	if *writeSnap != "" {
		if ps == nil {
			return fmt.Errorf("-write-snapshot generates a lattice; drop -snapshot")
		}
		if err := tess.WriteSnapshot(*writeSnap, ps, *chunks); err != nil {
			return err
		}
		fmt.Fprintf(w, "snapshot: wrote %s (%d particles, %d chunks)\n", *writeSnap, len(ps), *chunks)
		return nil
	}
	cfg := tess.NewPeriodicConfig(*box)
	cfg.GhostSize = *ghost
	cfg.Workers = *workers
	cfg.Recorder = tess.NewRecorder(*blocks)
	switch *decomp {
	case "grid":
		cfg.Decomposition = tess.DecomposeRegular
	case "rcb":
		cfg.Decomposition = tess.DecomposeRCB
	default:
		return fmt.Errorf("-decomp must be grid or rcb, got %q", *decomp)
	}

	var out *tess.Output
	nparticles := len(ps)
	if *snapshot != "" {
		// Out-of-core: one streamed step through a session, the same code
		// path Run takes, with the file source's window bounding staging.
		src, err := tess.OpenFileSource(*snapshot, *window)
		if err != nil {
			return err
		}
		defer src.Close()
		sess, err := tess.Open(cfg, *blocks)
		if err != nil {
			return err
		}
		defer sess.Close()
		if out, err = sess.StepFrom(src, tess.WithOutputPath(*outPath)); err != nil {
			return err
		}
		st := src.Stats()
		nparticles = st.TotalParticles
		fmt.Fprintf(w, "source: %s  %d chunks  loads %d  evictions %d  peak resident %d chunks / %d particles\n",
			*snapshot, src.Chunks(), st.Loads, st.Evictions,
			st.PeakResidentChunks, st.PeakResidentParticles)
	} else {
		var err error
		if out, err = tess.Run(cfg, ps, *blocks, tess.WithOutputPath(*outPath)); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "particles %d  blocks %d  ghost %g\n", nparticles, *blocks, *ghost)
	fmt.Fprintf(w, "cells: kept %d  incomplete %d  culled %d\n",
		out.Counts.Kept, out.Counts.Incomplete, out.Counts.CulledEarly+out.Counts.CulledExact)
	fmt.Fprintf(w, "timing: exchange %v  compute %v  output %v  total %v\n",
		out.Timing.Exchange, out.Timing.Compute, out.Timing.Output, out.Timing.Total)
	s := out.Obs
	fmt.Fprintf(w, "comm: %d msgs  %d bytes sent  %d bytes received  imbalance %.2f\n",
		s.TotalSentMsgs, s.TotalSentBytes, s.TotalRecvdBytes, s.ComputeImbalance)
	fmt.Fprintf(w, "balance: decomp %s  compute imbalance %.2f (slowest/mean)  exchange imbalance %.2f\n",
		*decomp, s.Imbalance(tess.PhaseCompute), s.Imbalance(tess.PhaseExchange))

	if *trace != "" {
		if err := s.WriteTraceFile(*trace); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %s\n", *trace)
	}
	if *densityN > 0 {
		if err := runDensity(w, cfg, ps, *blocks, *densityN, *spectrum, *densityO); err != nil {
			return err
		}
	}
	if *canonical != "" {
		m, err := tess.MergeCanonical(out.Meshes, cfg.Domain, cfg.Periodic)
		if err != nil {
			return fmt.Errorf("canonical merge: %w", err)
		}
		data, err := m.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*canonical, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "canonical: %s (%d cells, %d bytes)\n", *canonical, m.NumCells(), len(data))
	}
	return nil
}

// runDensity pushes the snapshot through a session's density pipeline and
// prints the field statistics, percentiles, and (optionally) the low-k end
// of the power spectrum.
func runDensity(w io.Writer, cfg tess.Config, ps []tess.Particle, blocks, gridN int, spectrum bool, outPath string) error {
	sess, err := tess.Open(cfg, blocks)
	if err != nil {
		return err
	}
	defer sess.Close()
	res, err := sess.StepDensity(ps, tess.DensityConfig{GridN: gridN, Spectrum: spectrum})
	if err != nil {
		return fmt.Errorf("density pipeline: %w", err)
	}
	st := res.Stats
	fmt.Fprintf(w, "density: grid %d^3  tets %d  padded %d tracers\n", res.GridN, res.Tets, res.Padded)
	fmt.Fprintf(w, "density: mean %.4g  min %.4g  max %.4g  void frac %.3f\n",
		st.Mean, st.Min, st.Max, st.VoidFrac)
	fmt.Fprintf(w, "density: mass grid %.6g  tracers %.6g  (ratio %.4f)\n",
		st.GridMass, st.TracerMass, st.GridMass/st.TracerMass)
	for _, p := range st.Percentiles {
		fmt.Fprintf(w, "density: p%-4g %.4g\n", p.P, p.Value)
	}
	if spectrum {
		kmax := len(res.Spectrum)
		if kmax > 8 {
			kmax = 8
		}
		for _, b := range res.Spectrum[:kmax] {
			fmt.Fprintf(w, "spectrum: k %.4g  P %.6g  (%d modes)\n", b.K, b.Power, b.Count)
		}
	}
	if outPath != "" {
		data := tess.EncodeDensityGrid(res.Grid)
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "density: wrote %s (%d bytes)\n", outPath, len(data))
	}
	return nil
}

// latticeParticles fills the box with a jittered n^3 lattice — the same
// quasi-uniform distribution the accuracy and scaling studies use.
func latticeParticles(n int, L, amp float64, seed int64) []tess.Particle {
	rng := rand.New(rand.NewSource(seed))
	h := L / float64(n)
	ps := make([]tess.Particle, 0, n*n*n)
	id := int64(0)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				ps = append(ps, tess.Particle{ID: id, Pos: tess.Vec3{
					X: (float64(x)+0.5)*h + (rng.Float64()-0.5)*amp*h,
					Y: (float64(y)+0.5)*h + (rng.Float64()-0.5)*amp*h,
					Z: (float64(z)+0.5)*h + (rng.Float64()-0.5)*amp*h,
				}})
				id++
			}
		}
	}
	return ps
}
