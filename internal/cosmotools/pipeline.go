package cosmotools

import (
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/halo"
	"repro/internal/nbody"
	"repro/internal/track"
)

// Context is what the framework hands each analysis invocation.
type Context struct {
	// Sim is the live simulation (read-only by convention: analyses must
	// not mutate particle state).
	Sim *nbody.Simulation

	p *Pipeline // whose products the step's due tools share
}

// meshKey names a tessellation tools share: the session's config and blocks,
// and the FOF config whose halo centers are the sites (zero: the particles).
type meshKey struct {
	cfg    core.Config
	blocks int
	fof    halo.Config
}

// halos returns the step's FOF halos under fof.
func (ctx *Context) halos(fof halo.Config) ([]halo.Halo, error) {
	if hs, ok := ctx.p.halos[fof]; ok {
		return hs, nil
	}
	hs, err := halo.Find(ctx.Sim.Pos, fof)
	if err == nil {
		ctx.p.halos[fof] = hs
	}
	return hs, err
}

// mesh returns the step's tessellation under key, stepping its session
// (opened by the first step that reads it) on the step's first call. Halo
// sites before any halo has formed are no sites at all: mesh then returns
// a nil Output, steps no session and writes no file.
func (ctx *Context) mesh(key meshKey) (*core.Output, error) {
	p := ctx.p
	if out, ok := p.meshes[key]; ok {
		return out, nil
	}
	pos := ctx.Sim.Pos
	if key.fof != (halo.Config{}) {
		halos, err := ctx.halos(key.fof)
		if err != nil {
			return nil, err
		}
		if len(halos) == 0 {
			p.meshes[key] = nil
			return nil, nil
		}
		pos = make([]geom.Vec3, len(halos))
		for i, h := range halos {
			pos[i] = h.Center
		}
	}
	sites := make([]diy.Particle, len(pos))
	for i, x := range pos {
		sites[i] = diy.Particle{ID: int64(i), Pos: x}
	}
	i := slices.Index(p.keys, key)
	if i < 0 {
		sess, err := core.OpenSession(key.cfg, key.blocks)
		if err != nil {
			return nil, err
		}
		i = len(p.sessions)
		p.keys, p.sessions = append(p.keys, key), append(p.sessions, sess)
	}
	out, err := p.sessions[i].Step(sites, core.WithOutputPath(p.paths[key]))
	if err == nil {
		p.meshes[key] = out
	}
	return out, err
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

// Analysis is a level-1 in situ analysis tool.
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
	// sessions[i] tessellates under keys[i], in the order opened. A step's
	// due tools share its products: each mesh (an Output loan) and FOF
	// catalogue is made by its first reader, who pays for it in Elapsed,
	// and dropped by the next Step; paths[k] is the file mesh k goes to.
	keys     []meshKey
	sessions []*core.Session
	paths    map[meshKey]string
	meshes   map[meshKey]*core.Output
	halos    map[halo.Config][]halo.Halo
	live     *Server
	err      error
}

// NewPipeline builds the analyses named in the deck. Every section accepts
// every = N (default 10), the tool's execution period in steps, where 0
// runs the tool on the final step only; the remaining keys are the tool's
// own.
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
		if every < 0 {
			r.check(fmt.Errorf("every %d, want >= 0 (0 = the final step only)", every))
		}
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
// (see Err) it runs nothing, and an attached Server reads the run as
// stopped: a driving loop ends at that step.
func (p *Pipeline) Step(sim *nbody.Simulation, totalSteps int) []Result {
	first := len(p.Results)
	p.paths, p.meshes, p.halos = map[meshKey]string{}, map[meshKey]*core.Output{}, map[halo.Config][]halo.Halo{}
	var due []int // none after an analysis error
	for i, a := range p.Analyses {
		if p.err == nil && (p.every[i] > 0 && sim.Step%p.every[i] == 0 || sim.Step == totalSteps) {
			due = append(due, i)
			// Whichever due tool reads a mesh first steps its session, so
			// the file a due writer asks for is known before any tool runs.
			if t, ok := a.(*tessAnalysis); ok && t.write && p.OutputDir != "" {
				p.paths[t.key] = filepath.Join(p.OutputDir, fmt.Sprintf("tess-step-%04d.out", sim.Step))
			}
		}
	}
	for _, i := range due {
		t0 := time.Now()
		res, err := p.Analyses[i].Run(&Context{Sim: sim, p: p})
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
			Running:    sim.Step < totalSteps && p.err == nil,
			Particles:  sim.NumParticles(),
		})
	}
	return made
}

// Err returns the first analysis error, if any; it names the tool and the
// step it failed at.
func (p *Pipeline) Err() error { return p.err }

// Close closes the pipeline's tessellation sessions in the order they were
// opened. It is idempotent and returns the first close error.
func (p *Pipeline) Close() error {
	var first error
	for _, s := range p.sessions {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Run is the one-call in situ run: it starts a fresh simulation, advances
// it steps times and runs Step after each, stopping at the first analysis
// error (which it returns, as Err does). It closes the pipeline's sessions
// when the run ends.
func (p *Pipeline) Run(simCfg nbody.Config, steps int) error {
	sim, err := nbody.New(simCfg)
	if err != nil {
		return err
	}
	defer p.Close()
	for i := 0; i < steps && p.err == nil; i++ {
		sim.StepOnce()
		p.Step(sim, steps)
	}
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
