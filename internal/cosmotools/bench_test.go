package cosmotools

import (
	"os"
	"testing"

	"repro/internal/nbody"
)

// The decks of the tools verb: its built-in default (as -print-config
// prints it) and the golden run's deck.
const (
	defaultDeckPath = "../../cmd/tess/testdata/tools_print_config.txt"
	toolsDeckPath   = "../../cmd/tess/testdata/tools.cfg"
)

func readDeck(tb testing.TB, path string) *Config {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	cfg, err := ParseConfig(f)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg
}

// BenchmarkPipelineDueStep times Pipeline.Step at a due step (step 20) of
// the tools verb's default deck over a 32^3 simulation: one op runs every
// tool of the deck once. The simulation is advanced, and the pipeline's
// sessions opened and warmed by one Step, before the timer starts.
// tess-ms/op and voids-ms/op are those tools' Elapsed per op; the first
// reader of a shared tessellation pays for it.
func BenchmarkPipelineDueStep(b *testing.B) {
	simCfg := nbody.DefaultConfig(32)
	sim, err := nbody.New(simCfg)
	if err != nil {
		b.Fatal(err)
	}
	for sim.Step < 20 {
		sim.StepOnce()
	}
	p, err := NewPipeline(readDeck(b, defaultDeckPath), simCfg, "")
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.Step(sim, 40)
	first := len(p.Results)
	b.ResetTimer()
	for range b.N {
		p.Step(sim, 40)
	}
	b.StopTimer()
	if err := p.Err(); err != nil {
		b.Fatal(err)
	}
	ms := map[string]float64{}
	for _, r := range p.Results[first:] {
		ms[r.Analysis] += float64(r.Elapsed.Microseconds()) / 1e3
	}
	b.ReportMetric(ms["tess"]/float64(b.N), "tess-ms/op")
	b.ReportMetric(ms["voids"]/float64(b.N), "voids-ms/op")
}
