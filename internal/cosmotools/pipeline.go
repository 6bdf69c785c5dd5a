package cosmotools

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/nbody"
	"repro/internal/track"
)

// Context is what the framework hands each analysis invocation.
type Context struct {
	// Sim is the live simulation (read-only by convention: analyses must
	// not mutate particle state).
	Sim *nbody.Simulation
	// Step is the simulation step the analysis runs after.
	Step int
	// OutputDir receives analysis files ("" disables file output).
	OutputDir string
}

// Result is one analysis invocation's summary.
type Result struct {
	Analysis string             `json:"analysis"`
	Step     int                `json:"step"`
	Summary  string             `json:"summary"`
	Metrics  map[string]float64 `json:"metrics"`
	Elapsed  time.Duration      `json:"-"`
}

// MarshalJSON is the live endpoints' wire form of a result: the tagged
// fields, then the elapsed time in milliseconds.
func (r Result) MarshalJSON() ([]byte, error) {
	type fields Result
	return json.Marshal(struct {
		fields
		ElapsedMS float64 `json:"elapsed_ms"`
	}{fields(r), float64(r.Elapsed.Microseconds()) / 1e3})
}

// Analysis is a level-1 in situ analysis tool. A tool that holds
// persistent resources also has a Close() error method, which
// Pipeline.Close calls.
type Analysis interface {
	// Run executes the analysis on the current simulation state.
	Run(ctx *Context) (Result, error)
}

// builder constructs an analysis from its deck section, given the
// simulation configuration (for box size and particle counts). Bad values
// and unknown keys are the reader's to report.
type builder func(p *params, simCfg nbody.Config) Analysis

var registry = map[string]builder{
	"correlation": newCorrelationAnalysis,
	"tess":        newTessAnalysis,
	"halo":        newHaloAnalysis,
	"multistream": newMultistreamAnalysis,
	"powerspec":   newPowerSpectrumAnalysis,
	"voids":       newVoidsAnalysis,
}

// KnownAnalyses lists the registered analysis names.
func KnownAnalyses() []string {
	return slices.Sorted(maps.Keys(registry))
}

// Pipeline drives a set of analyses over a simulation run, mirroring the
// paper's Figure 4: the simulation invokes the framework each step, and
// each enabled tool runs at its configured frequency.
type Pipeline struct {
	// Analyses are the enabled tools, in deck order.
	Analyses  []Analysis
	OutputDir string
	// Results accumulates every invocation in execution order.
	Results []Result

	// names[i] and every[i] are Analyses[i]'s deck section name (its
	// registry key) and its execution period in steps.
	names []string
	every []int
	live  *Server
	err   error
}

// NewPipeline builds the analyses named in the deck. Every section accepts
// every = N (default 10), the tool's execution period; the remaining keys
// are the tool's own.
func NewPipeline(cfg *Config, simCfg nbody.Config, outputDir string) (*Pipeline, error) {
	p := &Pipeline{OutputDir: outputDir}
	for i := range cfg.Sections {
		s := &cfg.Sections[i]
		build, ok := registry[s.Name]
		if !ok {
			return nil, fmt.Errorf("cosmotools: unknown analysis %q (known: %v)", s.Name, KnownAnalyses())
		}
		r := &params{s: s, read: map[string]bool{}}
		every := r.int("every", 10)
		a := build(r, simCfg)
		if err := r.done(); err != nil {
			return nil, err
		}
		p.Analyses = append(p.Analyses, a)
		p.names = append(p.names, s.Name)
		p.every = append(p.every, every)
	}
	if len(p.Analyses) == 0 {
		return nil, fmt.Errorf("cosmotools: configuration enables no analyses")
	}
	return p, nil
}

// Step runs every tool that is due after sim's current step — its period
// divides the step, or the step is totalSteps, the run's last, on which
// every tool runs — and returns the invocations it made (also appended to
// Results, and published to an attached Server). After an analysis error
// (see Err) it runs nothing.
func (p *Pipeline) Step(sim *nbody.Simulation, totalSteps int) []Result {
	first := len(p.Results)
	for i, a := range p.Analyses {
		if p.err != nil {
			break
		}
		due := p.every[i] > 0 && sim.Step%p.every[i] == 0
		if !due && sim.Step != totalSteps {
			continue
		}
		t0 := time.Now()
		res, err := a.Run(&Context{Sim: sim, Step: sim.Step, OutputDir: p.OutputDir})
		if err != nil {
			p.err = fmt.Errorf("cosmotools: %s at step %d: %w", p.names[i], sim.Step, err)
			break
		}
		res.Analysis = p.names[i]
		res.Step = sim.Step
		res.Elapsed = time.Since(t0)
		p.Results = append(p.Results, res)
	}
	made := p.Results[first:]
	if p.live != nil {
		for _, r := range made {
			p.live.Publish(r)
		}
		p.live.SetStatus(Status{
			Step:       sim.Step,
			TotalSteps: totalSteps,
			Running:    sim.Step < totalSteps,
			Particles:  sim.NumParticles(),
		})
	}
	return made
}

// Hook returns Step as the per-step callback to pass to Simulation.Run,
// for runs that read Results at the end.
func (p *Pipeline) Hook(totalSteps int) func(*nbody.Simulation) {
	return func(sim *nbody.Simulation) { p.Step(sim, totalSteps) }
}

// Err returns the first analysis error, if any.
func (p *Pipeline) Err() error { return p.err }

// Close releases every analysis that holds persistent resources (the
// tessellation-backed tools keep a session of retained worlds and buffers
// open across invocations). It is idempotent and returns the first close
// error.
func (p *Pipeline) Close() error {
	var first error
	for _, a := range p.Analyses {
		c, ok := a.(interface{ Close() error })
		if !ok {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Run executes a fresh simulation with the pipeline attached, closing the
// analyses' persistent sessions when the run finishes.
func (p *Pipeline) Run(simCfg nbody.Config, steps int) error {
	sim, err := nbody.New(simCfg)
	if err != nil {
		return err
	}
	defer p.Close()
	sim.Run(steps, p.Hook(steps))
	return p.err
}

// tree builds the feature tree (internal/track) over the snapshots the
// named tool accumulated, one per invocation.
func (p *Pipeline) tree(name string, minOverlapFrac float64) (*track.Tree, error) {
	for i, a := range p.Analyses {
		if f, ok := a.(interface{ features() []track.Snapshot }); ok && p.names[i] == name {
			return track.Build(f.features(), minOverlapFrac)
		}
	}
	return nil, fmt.Errorf("cosmotools: pipeline has no %s analysis", name)
}

// HaloTree builds the merger tree over the halos accumulated by the
// pipeline's halo analysis (Fig. 4 lists "merger trees" among the level-1
// tools): halos are matched across snapshots by particle membership, so
// Merge events are halo mergers and Birth events are newly collapsed
// halos. minOverlapFrac is passed to track.Build.
func (p *Pipeline) HaloTree(minOverlapFrac float64) (*track.Tree, error) {
	return p.tree("halo", minOverlapFrac)
}

// VoidTree builds the feature tree over the void components accumulated by
// the pipeline's voids analysis — the temporal evolution study of the
// paper's Sec. V. minOverlapFrac is passed to track.Build.
func (p *Pipeline) VoidTree(minOverlapFrac float64) (*track.Tree, error) {
	return p.tree("voids", minOverlapFrac)
}
