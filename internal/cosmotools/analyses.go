package cosmotools

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/halo"
	"repro/internal/multistream"
	"repro/internal/nbody"
	"repro/internal/stats"
	"repro/internal/track"
	"repro/internal/voids"
)

func particlesOf(sim *nbody.Simulation) []diy.Particle {
	out := make([]diy.Particle, len(sim.Pos))
	for i, p := range sim.Pos {
		out[i] = diy.Particle{ID: int64(i), Pos: p}
	}
	return out
}

// lazySession is the persistent tessellation session of the tess and voids
// tools: its config is resolved and checked when the deck is read, and the
// session is opened on the first invocation and reused for every later
// step of the run (the framework calls Close when the pipeline finishes).
type lazySession struct {
	blocks int
	cfg    core.Config
	sess   *core.Session
}

// newLazySession reads the blocks key and resolves the session config over
// the simulation box, with the widest ghost a session accepts (evolved
// snapshots grow large void cells).
func newLazySession(p *params, simCfg nbody.Config) lazySession {
	L := simCfg.BoxSize
	cfg := core.Config{Domain: geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)), Periodic: true}
	cfg.GhostSize = core.GhostCeiling(cfg)
	return lazySession{blocks: p.int("blocks", 8), cfg: cfg}
}

func (l *lazySession) session() (*core.Session, error) {
	if l.sess != nil {
		return l.sess, nil
	}
	var err error
	l.sess, err = core.OpenSession(l.cfg, l.blocks)
	return l.sess, err
}

// Close releases the persistent session, if one was opened.
func (l *lazySession) Close() error {
	if l.sess != nil {
		return l.sess.Close()
	}
	return nil
}

// tracked accumulates one snapshot of features per invocation, for the
// tools whose features Pipeline.tree follows across steps.
type tracked struct{ snaps []track.Snapshot }

func (t *tracked) features() []track.Snapshot { return t.snaps }

// fofConfig reads the friends-of-friends keys the halo tool and tess's
// sites = halos mode share; linking_length is in units of the mean
// interparticle spacing.
func fofConfig(p *params, simCfg nbody.Config) halo.Config {
	return halo.Config{
		BoxSize:       simCfg.BoxSize,
		LinkingLength: p.float("linking_length", 0.2) * (simCfg.BoxSize / float64(simCfg.Ng)),
		MinMembers:    p.int("min_members", 10),
	}
}

// --- tess: the Voronoi tessellation tool ---

type tessAnalysis struct {
	lazySession
	write bool
	// halos runs FOF first and uses the halo centers as Voronoi sites
	// instead of the tracer particles — the paper's Sec. V suggestion
	// ("halos can be matched to direct observables such as galaxies").
	halos bool
	fof   halo.Config
}

func newTessAnalysis(p *params, simCfg nbody.Config) Analysis {
	a := &tessAnalysis{lazySession: newLazySession(p, simCfg)}
	// A ghost of 0, or none, keeps the ceiling.
	if g := p.float("ghost", 0); g != 0 {
		a.cfg.GhostSize = g
	}
	a.cfg.MinVolume = p.float("min_volume", 0)
	a.write = p.bool("write", true)
	a.halos = p.oneOf("sites", "particles", "halos") == "halos"
	a.fof = fofConfig(p, simCfg)
	if a.halos {
		p.check(a.fof.Validate())
	}
	// Halo sites are sparse: proving completeness would need a ghost wider
	// than the blocks; retain the (correct-by-security-radius or flagged)
	// cells rather than deleting them.
	a.cfg.KeepIncomplete = a.halos
	// OpenSession's own rule: a value the session would refuse is the
	// deck's error.
	p.check(a.cfg.Validate(a.blocks))
	return a
}

// siteParticles returns the Voronoi sites for this invocation: the tracer
// particles, or the FOF halo centers in halos mode.
func (a *tessAnalysis) siteParticles(ctx *Context) ([]diy.Particle, error) {
	if !a.halos {
		return particlesOf(ctx.Sim), nil
	}
	halos, err := halo.Find(ctx.Sim.Pos, a.fof)
	if err != nil {
		return nil, err
	}
	if len(halos) == 0 {
		return nil, fmt.Errorf("cosmotools: no halos to tessellate at step %d", ctx.Step)
	}
	out := make([]diy.Particle, len(halos))
	for i, h := range halos {
		out[i] = diy.Particle{ID: int64(i), Pos: h.Center}
	}
	return out, nil
}

func (a *tessAnalysis) Run(ctx *Context) (Result, error) {
	sess, err := a.session()
	if err != nil {
		return Result{}, err
	}
	sites, err := a.siteParticles(ctx)
	if err != nil {
		return Result{}, err
	}
	outputPath := ""
	if a.write && ctx.OutputDir != "" {
		outputPath = filepath.Join(ctx.OutputDir, fmt.Sprintf("tess-step-%04d.out", ctx.Step))
	}
	out, err := sess.Step(sites, core.WithOutputPath(outputPath))
	if err != nil {
		return Result{}, err
	}
	m := stats.ComputeMoments(out.Volumes())
	return Result{
		Summary: fmt.Sprintf("%d cells (%d incomplete, %d culled), volume skewness %.2f",
			out.Counts.Kept, out.Counts.Incomplete,
			out.Counts.CulledEarly+out.Counts.CulledExact, m.Skewness),
		Metrics: map[string]float64{
			"cells":           float64(out.Counts.Kept),
			"incomplete":      float64(out.Counts.Incomplete),
			"volume_skewness": m.Skewness,
			"volume_kurtosis": m.Kurtosis,
			"output_bytes":    float64(out.Timing.OutputBytes),
		},
	}, nil
}

// --- halo: friends-of-friends halo finding ---

type haloAnalysis struct {
	tracked // for merger trees
	fof     halo.Config
}

func newHaloAnalysis(p *params, simCfg nbody.Config) Analysis {
	a := &haloAnalysis{fof: fofConfig(p, simCfg)}
	p.check(a.fof.Validate())
	return a
}

func (a *haloAnalysis) Run(ctx *Context) (Result, error) {
	halos, err := halo.Find(ctx.Sim.Pos, a.fof)
	if err != nil {
		return Result{}, err
	}
	// Halos are matched across snapshots by particle membership.
	feats := make([]track.Feature, len(halos))
	largest := 0
	inHalos := 0
	for i, h := range halos {
		ids := make([]int64, len(h.Members))
		for k, m := range h.Members {
			ids[k] = int64(m)
		}
		feats[i] = track.Feature{IDs: ids, Weight: float64(h.Mass())}
		inHalos += h.Mass()
		if h.Mass() > largest {
			largest = h.Mass()
		}
	}
	a.snaps = append(a.snaps, track.Snapshot{Step: ctx.Step, Features: feats})
	return Result{
		Summary: fmt.Sprintf("%d halos, largest %d particles, %.1f%% of mass in halos",
			len(halos), largest, 100*float64(inHalos)/float64(len(ctx.Sim.Pos))),
		Metrics: map[string]float64{
			"halos":         float64(len(halos)),
			"largest_mass":  float64(largest),
			"mass_fraction": float64(inHalos) / float64(len(ctx.Sim.Pos)),
		},
	}, nil
}

// --- multistream: stream counting ---

type multistreamAnalysis struct {
	grid    int
	ng      int
	boxSize float64
}

func newMultistreamAnalysis(p *params, simCfg nbody.Config) Analysis {
	a := &multistreamAnalysis{grid: p.int("grid", 2*simCfg.Ng), ng: simCfg.Ng, boxSize: simCfg.BoxSize}
	p.check(multistream.ValidateGrid(a.grid, a.boxSize))
	return a
}

func (a *multistreamAnalysis) Run(ctx *Context) (Result, error) {
	f, err := multistream.Compute(ctx.Sim.Pos, a.ng, a.boxSize, a.grid)
	if err != nil {
		return Result{}, err
	}
	st := f.Summarize()
	return Result{
		Summary: fmt.Sprintf("%.1f%% single-stream, %.1f%% collapsed (3+), max %d streams",
			100*st.SingleStream, 100*st.ThreePlus, st.Max),
		Metrics: map[string]float64{
			"single_stream": st.SingleStream,
			"three_plus":    st.ThreePlus,
			"max_streams":   float64(st.Max),
			"mean_streams":  st.Mean,
		},
	}, nil
}

// --- powerspec: matter power spectrum ---

type powerSpectrumAnalysis struct {
	bins    int
	ng      int
	boxSize float64
}

func newPowerSpectrumAnalysis(p *params, simCfg nbody.Config) Analysis {
	a := &powerSpectrumAnalysis{bins: p.int("bins", 8), ng: simCfg.Ng, boxSize: simCfg.BoxSize}
	p.check(cosmo.ValidateSpectrum(a.ng, a.boxSize, a.bins))
	return a
}

func (a *powerSpectrumAnalysis) Run(ctx *Context) (Result, error) {
	pk, err := cosmo.PowerSpectrum(ctx.Sim.Pos, a.ng, a.boxSize, a.bins)
	if err != nil {
		return Result{}, err
	}
	if len(pk) == 0 {
		return Result{}, fmt.Errorf("cosmotools: empty power spectrum")
	}
	return Result{
		Summary: fmt.Sprintf("P(k=%.2f) = %.3f over %d bins", pk[0].K, pk[0].P, len(pk)),
		Metrics: map[string]float64{
			"k_low":    pk[0].K,
			"p_low":    pk[0].P,
			"p_high":   pk[len(pk)-1].P,
			"num_bins": float64(len(pk)),
		},
	}, nil
}

// --- correlation: two-point correlation function ---

type correlationAnalysis struct {
	rmax    float64
	bins    int
	boxSize float64
}

func newCorrelationAnalysis(p *params, simCfg nbody.Config) Analysis {
	a := &correlationAnalysis{
		rmax:    p.float("rmax", simCfg.BoxSize/4),
		bins:    p.int("bins", 8),
		boxSize: simCfg.BoxSize,
	}
	p.check(cosmo.ValidateCorrelation(a.boxSize, a.rmax, a.bins))
	return a
}

func (a *correlationAnalysis) Run(ctx *Context) (Result, error) {
	xi, err := cosmo.CorrelationFunction(ctx.Sim.Pos, a.boxSize, a.rmax, a.bins)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Summary: fmt.Sprintf("xi(%.2f) = %.3f, xi(%.2f) = %.3f",
			xi[0].R, xi[0].Xi, xi[len(xi)-1].R, xi[len(xi)-1].Xi),
		Metrics: map[string]float64{
			"xi_small": xi[0].Xi,
			"xi_large": xi[len(xi)-1].Xi,
			"r_small":  xi[0].R,
			"r_large":  xi[len(xi)-1].R,
		},
	}, nil
}

// --- voids: threshold + connected components + feature tracking ---

type voidsAnalysis struct {
	lazySession
	tracked
	threshold float64 // 0 = mean cell volume
}

func newVoidsAnalysis(p *params, simCfg nbody.Config) Analysis {
	a := &voidsAnalysis{lazySession: newLazySession(p, simCfg), threshold: p.float("threshold", 0)}
	if !(a.threshold >= 0) { // also rejects NaN
		p.check(fmt.Errorf("threshold %g, want >= 0 (0 = the mean cell volume)", a.threshold))
	}
	p.check(a.cfg.Validate(a.blocks))
	return a
}

func (a *voidsAnalysis) Run(ctx *Context) (Result, error) {
	sess, err := a.session()
	if err != nil {
		return Result{}, err
	}
	out, err := sess.Step(particlesOf(ctx.Sim))
	if err != nil {
		return Result{}, err
	}
	comps, th := voids.LabelMeshes(out.Meshes, a.threshold)
	feats := make([]track.Feature, len(comps))
	for i, c := range comps {
		feats[i] = track.Feature{IDs: c.CellIDs, Weight: c.Functionals.Volume}
	}
	a.snaps = append(a.snaps, track.Snapshot{Step: ctx.Step, Features: feats})

	largest := 0.0
	if len(comps) > 0 {
		largest = comps[0].Functionals.Volume
	}
	return Result{
		Summary: fmt.Sprintf("%d voids above volume %.3f, largest %.1f", len(comps), th, largest),
		Metrics: map[string]float64{
			"voids":          float64(len(comps)),
			"threshold":      th,
			"largest_volume": largest,
		},
	}, nil
}
