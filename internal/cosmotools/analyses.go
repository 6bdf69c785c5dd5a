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
	"repro/internal/storage"
	"repro/internal/voids"
)

func checkUnknown(s *Section, allowed ...string) error {
	if bad := s.UnknownKeys(allowed...); len(bad) > 0 {
		return fmt.Errorf("cosmotools: [%s] has unknown keys %v", s.Name, bad)
	}
	return nil
}

func particlesOf(sim *nbody.Simulation) []diy.Particle {
	out := make([]diy.Particle, len(sim.Pos))
	for i, p := range sim.Pos {
		out[i] = diy.Particle{ID: int64(i), Pos: p}
	}
	return out
}

// widestGhostConfig is the periodic config both tessellating analyses
// start from: evolved snapshots grow large void cells, so the ghost is the
// widest the decomposition supports.
func widestGhostConfig(domain geom.Box, blocks int) (core.Config, error) {
	cfg := core.Config{Domain: domain, Periodic: true}
	var err error
	cfg.GhostSize, err = core.GhostCeiling(cfg, blocks)
	return cfg, err
}

// --- tess: the Voronoi tessellation tool ---

type tessAnalysis struct {
	every     int
	blocks    int
	ghost     float64 // 0 = widest valid
	minVolume float64
	write     bool
	sites     string // "particles" or "halos"
	linking   float64
	minMemb   int
	spacing   float64
	domain    geom.Box

	// sess is the persistent tessellation session, opened lazily on the
	// first invocation and reused for every later step of the run (the
	// framework calls Close when the pipeline finishes).
	sess *core.Session
}

func newTessAnalysis(s *Section, simCfg nbody.Config) (Analysis, error) {
	if err := checkUnknown(s, "every", "blocks", "ghost", "min_volume", "write",
		"sites", "linking_length", "min_members"); err != nil {
		return nil, err
	}
	a := &tessAnalysis{spacing: simCfg.BoxSize / float64(simCfg.Ng)}
	var err error
	if a.every, err = s.Int("every", 10); err != nil {
		return nil, err
	}
	if a.blocks, err = s.Int("blocks", 8); err != nil {
		return nil, err
	}
	if a.ghost, err = s.Float("ghost", 0); err != nil {
		return nil, err
	}
	if a.minVolume, err = s.Float("min_volume", 0); err != nil {
		return nil, err
	}
	if a.write, err = s.Bool("write", true); err != nil {
		return nil, err
	}
	// The paper's Sec. V suggestion: tessellate halo centers instead of
	// tracer particles ("halos can be matched to direct observables such
	// as galaxies"). sites = halos runs FOF first and uses halo centers as
	// Voronoi sites.
	a.sites = "particles"
	if v, ok := s.Params["sites"]; ok {
		if v != "particles" && v != "halos" {
			return nil, fmt.Errorf("cosmotools: [tess] sites must be particles or halos, got %q", v)
		}
		a.sites = v
	}
	if a.linking, err = s.Float("linking_length", 0.2); err != nil {
		return nil, err
	}
	if a.minMemb, err = s.Int("min_members", 10); err != nil {
		return nil, err
	}
	L := simCfg.BoxSize
	a.domain = geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L))
	return a, nil
}

// siteParticles returns the Voronoi sites for this invocation: the tracer
// particles, or the FOF halo centers in halos mode.
func (a *tessAnalysis) siteParticles(ctx *Context) ([]diy.Particle, error) {
	if a.sites != "halos" {
		return particlesOf(ctx.Sim), nil
	}
	halos, err := halo.Find(ctx.Sim.Pos, halo.Config{
		BoxSize:       a.domain.Size().X,
		LinkingLength: a.linking * a.spacing,
		MinMembers:    a.minMemb,
	})
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

func (a *tessAnalysis) Name() string { return "tess" }
func (a *tessAnalysis) Every() int   { return a.every }

func (a *tessAnalysis) tessConfig() (core.Config, error) {
	cfg, err := widestGhostConfig(a.domain, a.blocks)
	if err != nil {
		return cfg, err
	}
	if a.ghost > 0 {
		cfg.GhostSize = a.ghost
	}
	cfg.MinVolume = a.minVolume
	if a.sites == "halos" {
		// Halo sites are sparse: proving completeness would need a ghost
		// wider than the blocks; retain the (correct-by-security-radius or
		// flagged) cells rather than deleting them.
		cfg.KeepIncomplete = true
	}
	return cfg, nil
}

// Close releases the analysis's persistent session, if one was opened.
func (a *tessAnalysis) Close() error {
	if a.sess != nil {
		return a.sess.Close()
	}
	return nil
}

func (a *tessAnalysis) Run(ctx *Context) (Result, error) {
	if a.sess == nil {
		cfg, err := a.tessConfig()
		if err != nil {
			return Result{}, err
		}
		if a.sess, err = core.OpenSession(cfg, a.blocks); err != nil {
			return Result{}, err
		}
	}
	sites, err := a.siteParticles(ctx)
	if err != nil {
		return Result{}, err
	}
	outputPath := ""
	if a.write && ctx.OutputDir != "" {
		outputPath = filepath.Join(ctx.OutputDir, fmt.Sprintf("tess-step-%04d.out", ctx.Step))
	}
	out, err := a.sess.StepSource(storage.NewSliceSource(sites), core.StepOpts{OutputPath: outputPath})
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
	every      int
	linking    float64 // in units of mean interparticle spacing
	minMembers int
	boxSize    float64
	spacing    float64

	// snapshots accumulate across invocations for merger trees.
	snapshots []haloSnapshot
}

type haloSnapshot struct {
	step  int
	halos []halo.Halo
}

func newHaloAnalysis(s *Section, simCfg nbody.Config) (Analysis, error) {
	if err := checkUnknown(s, "every", "linking_length", "min_members"); err != nil {
		return nil, err
	}
	a := &haloAnalysis{boxSize: simCfg.BoxSize, spacing: simCfg.BoxSize / float64(simCfg.Ng)}
	var err error
	if a.every, err = s.Int("every", 10); err != nil {
		return nil, err
	}
	if a.linking, err = s.Float("linking_length", 0.2); err != nil {
		return nil, err
	}
	if a.minMembers, err = s.Int("min_members", 10); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *haloAnalysis) Name() string { return "halo" }
func (a *haloAnalysis) Every() int   { return a.every }

func (a *haloAnalysis) Run(ctx *Context) (Result, error) {
	halos, err := halo.Find(ctx.Sim.Pos, halo.Config{
		BoxSize:       a.boxSize,
		LinkingLength: a.linking * a.spacing,
		MinMembers:    a.minMembers,
	})
	if err != nil {
		return Result{}, err
	}
	a.snapshots = append(a.snapshots, haloSnapshot{step: ctx.Step, halos: halos})
	largest := 0
	inHalos := 0
	for _, h := range halos {
		inHalos += h.Mass()
		if h.Mass() > largest {
			largest = h.Mass()
		}
	}
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
	every   int
	grid    int
	ng      int
	boxSize float64
}

func newMultistreamAnalysis(s *Section, simCfg nbody.Config) (Analysis, error) {
	if err := checkUnknown(s, "every", "grid"); err != nil {
		return nil, err
	}
	a := &multistreamAnalysis{ng: simCfg.Ng, boxSize: simCfg.BoxSize}
	var err error
	if a.every, err = s.Int("every", 10); err != nil {
		return nil, err
	}
	if a.grid, err = s.Int("grid", 2*simCfg.Ng); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *multistreamAnalysis) Name() string { return "multistream" }
func (a *multistreamAnalysis) Every() int   { return a.every }

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
	every   int
	bins    int
	ng      int
	boxSize float64
}

func newPowerSpectrumAnalysis(s *Section, simCfg nbody.Config) (Analysis, error) {
	if err := checkUnknown(s, "every", "bins"); err != nil {
		return nil, err
	}
	a := &powerSpectrumAnalysis{ng: simCfg.Ng, boxSize: simCfg.BoxSize}
	var err error
	if a.every, err = s.Int("every", 10); err != nil {
		return nil, err
	}
	if a.bins, err = s.Int("bins", 8); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *powerSpectrumAnalysis) Name() string { return "powerspec" }
func (a *powerSpectrumAnalysis) Every() int   { return a.every }

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
	every   int
	rmax    float64
	bins    int
	boxSize float64
}

func newCorrelationAnalysis(s *Section, simCfg nbody.Config) (Analysis, error) {
	if err := checkUnknown(s, "every", "rmax", "bins"); err != nil {
		return nil, err
	}
	a := &correlationAnalysis{boxSize: simCfg.BoxSize}
	var err error
	if a.every, err = s.Int("every", 10); err != nil {
		return nil, err
	}
	if a.rmax, err = s.Float("rmax", simCfg.BoxSize/4); err != nil {
		return nil, err
	}
	if a.bins, err = s.Int("bins", 8); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *correlationAnalysis) Name() string { return "correlation" }
func (a *correlationAnalysis) Every() int   { return a.every }

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
	every     int
	blocks    int
	threshold float64 // 0 = mean cell volume
	domain    geom.Box

	// sess is the persistent tessellation session, opened lazily on the
	// first invocation (the framework calls Close when the pipeline
	// finishes).
	sess *core.Session

	// snapshots accumulate across invocations for feature tracking.
	snapshots []voidSnapshot
}

type voidSnapshot struct {
	step  int
	comps []voids.Component
}

func newVoidsAnalysis(s *Section, simCfg nbody.Config) (Analysis, error) {
	if err := checkUnknown(s, "every", "blocks", "threshold"); err != nil {
		return nil, err
	}
	a := &voidsAnalysis{}
	var err error
	if a.every, err = s.Int("every", 10); err != nil {
		return nil, err
	}
	if a.blocks, err = s.Int("blocks", 8); err != nil {
		return nil, err
	}
	if a.threshold, err = s.Float("threshold", 0); err != nil {
		return nil, err
	}
	L := simCfg.BoxSize
	a.domain = geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L))
	return a, nil
}

func (a *voidsAnalysis) Name() string { return "voids" }
func (a *voidsAnalysis) Every() int   { return a.every }

// Close releases the analysis's persistent session, if one was opened.
func (a *voidsAnalysis) Close() error {
	if a.sess != nil {
		return a.sess.Close()
	}
	return nil
}

func (a *voidsAnalysis) Run(ctx *Context) (Result, error) {
	if a.sess == nil {
		cfg, err := widestGhostConfig(a.domain, a.blocks)
		if err != nil {
			return Result{}, err
		}
		if a.sess, err = core.OpenSession(cfg, a.blocks); err != nil {
			return Result{}, err
		}
	}
	out, err := a.sess.Step(particlesOf(ctx.Sim))
	if err != nil {
		return Result{}, err
	}
	comps, th := voids.LabelMeshes(out.Meshes, a.threshold)
	a.snapshots = append(a.snapshots, voidSnapshot{step: ctx.Step, comps: comps})

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
