package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"repro"
)

const defaultDeck = `# cosmology tools configuration (all analyses enabled)
[tess]
every = 20
blocks = 8
write = true

[halo]
every = 20
linking_length = 0.2
min_members = 10

[multistream]
every = 20

[powerspec]
every = 20
bins = 8

[voids]
every = 20
blocks = 8
`

// tools runs the in situ analysis framework of the paper's Figure 4: a
// simulation with a configurable suite of level-1 analysis tools
// (tessellation, halo finding, multistream classification, power spectra,
// void finding) executed at selected time steps, with results written to
// storage and optionally published live over HTTP (the
// Catalyst/ParaView-server mode).
//
// Usage:
//
//	tess tools [-config deck.cfg] [-ng 16] [-steps 60] [-out DIR]
//	           [-serve :8080] [-voidtree]
//
// Without -config, a default deck enabling every analysis is used; pass
// -print-config to see it.
func tools(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tess tools", flag.ContinueOnError)
	var (
		configPath  = fs.String("config", "", "configuration deck (default: built-in deck enabling everything)")
		printConfig = fs.Bool("print-config", false, "print the effective configuration and exit")
		ng          = fs.Int("ng", 16, "particles per dimension (power of two)")
		steps       = fs.Int("steps", 60, "simulation steps")
		outDir      = fs.String("out", "", "directory for analysis output files")
		serveAddr   = fs.String("serve", "", "serve live results over HTTP at this address (e.g. :8080)")
		voidtree    = fs.Bool("voidtree", false, "print the void feature tree events at the end")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	deck := defaultDeck
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		deck = string(data)
	}
	if *printConfig {
		fmt.Fprint(w, deck)
		return nil
	}
	cfg, err := tess.ParseToolsConfig(strings.NewReader(deck))
	if err != nil {
		return err
	}

	simCfg := tess.NewSimConfig(*ng)
	pipeline, err := tess.NewPipeline(cfg, simCfg, *outDir)
	if err != nil {
		return err
	}
	defer pipeline.Close()

	sim, err := tess.NewSimulation(simCfg)
	if err != nil {
		return err
	}

	if *serveAddr != "" {
		live := tess.NewLiveServer()
		live.Attach(pipeline)
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return err
		}
		// Closing the listener when the run ends makes Serve return, so
		// the goroutine does not outlive the verb.
		defer ln.Close()
		log.Printf("serving live results at http://%s (endpoints: /status /results /results/latest /analyses)", ln.Addr())
		go func() {
			if err := http.Serve(ln, live.Handler()); !errors.Is(err, net.ErrClosed) {
				log.Printf("live server: %v", err)
			}
		}()
	}

	enabled := make([]string, len(cfg.Sections))
	for i, s := range cfg.Sections {
		enabled[i] = s.Name
	}
	fmt.Fprintf(w, "running %d^3 particles for %d steps with analyses %v\n",
		*ng, *steps, enabled)
	// The run stops at the first analysis failure.
	for i := 0; i < *steps && pipeline.Err() == nil; i++ {
		sim.StepOnce()
		for _, r := range pipeline.Step(sim, *steps) {
			fmt.Fprintf(w, "step %4d  %-12s %8.1fms  %s\n",
				r.Step, r.Analysis, float64(r.Elapsed.Microseconds())/1e3, r.Summary)
		}
	}
	if err := pipeline.Err(); err != nil {
		return err
	}

	if *voidtree {
		tree, err := pipeline.VoidTree(0.5)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nvoid feature tree:")
		for i := 0; i+1 < len(tree.Snapshots); i++ {
			events, err := tree.EventsAt(i)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  step %d -> %d:\n", tree.Snapshots[i].Step, tree.Snapshots[i+1].Step)
			for _, e := range events {
				fmt.Fprintf(w, "    %-13s from=%v to=%v\n", e.Type, e.From, e.To)
			}
		}
	}
	return nil
}
