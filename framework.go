package tess

import (
	"io"

	"repro/internal/core"
	"repro/internal/cosmotools"
)

// The in situ cosmology-tools framework (the paper's Figure 4): analyses
// are enabled and parameterized through a configuration deck, run at
// selected time steps of the simulation, and publish results to storage
// and/or a live HTTP endpoint.

// ToolsConfig is a parsed cosmology-tools configuration deck.
type ToolsConfig = cosmotools.Config

// Pipeline drives the configured analyses over a simulation run.
type Pipeline = cosmotools.Pipeline

// AnalysisResult is one analysis invocation's summary.
type AnalysisResult = cosmotools.Result

// LiveServer publishes pipeline results over HTTP while the simulation
// runs (the Catalyst/ParaView-server role of the paper's workflow).
type LiveServer = cosmotools.Server

// LiveStatus is the run-progress document served at /status.
type LiveStatus = cosmotools.Status

// ParseToolsConfig reads a configuration deck (see cosmotools.ParseConfig
// for the format).
func ParseToolsConfig(r io.Reader) (*ToolsConfig, error) {
	return cosmotools.ParseConfig(r)
}

// NewPipeline builds the analyses named in the deck against a simulation
// configuration; outputDir receives analysis files ("" disables them).
func NewPipeline(cfg *ToolsConfig, sim SimConfig, outputDir string) (*Pipeline, error) {
	return cosmotools.NewPipeline(cfg, sim, outputDir)
}

// NewLiveServer returns an empty live-results server; attach it to a
// pipeline with (*LiveServer).Attach and serve (*LiveServer).Handler().
func NewLiveServer() *LiveServer { return cosmotools.NewServer() }

// KnownAnalyses lists the analyses a deck may enable.
func KnownAnalyses() []string { return cosmotools.KnownAnalyses() }

// AutoTessellate is Run with automatic ghost-size determination (the
// follow-up the paper proposes in Sec. V): the ghost region grows until
// every cell is proven complete or MaxGhostFor is reached. It returns the
// output and the ghost size used. A zero cfg.GhostSize starts from an
// estimate based on the mean interparticle spacing. Each attempt is one session-backed pass (the ghost size, and
// with it the exchange geometry, changes between attempts, so attempts
// cannot share a session); cfg.Workers and opts apply to each attempt
// exactly as in Run. A cell flagged complete is not proven right: cells
// next to the edge of the ghost zone have been found complete and wrong
// at small ghosts and on a clustered input under the public defaults
// (ROADMAP item 2), and the loop does not grow the ghost for them.
func AutoTessellate(cfg Config, particles []Particle, numBlocks int, opts ...StepOption) (*Output, float64, error) {
	return core.AutoRun(cfg, particles, numBlocks, opts...)
}

// EstimateGhost proposes a ghost size for a particle population: four mean
// interparticle spacings, clamped to MaxGhostFor.
func EstimateGhost(cfg Config, numParticles int) (float64, error) {
	return core.EstimateGhost(cfg, numParticles)
}

// MaxGhostFor returns the widest ghost region a session over cfg's domain
// accepts, for either decomposition and any block count — the ceiling Open
// holds the ghost to and AutoTessellate and EstimateGhost clamp to: half
// the smallest side of a periodic domain, the largest side of a bounded
// one.
func MaxGhostFor(cfg Config) float64 {
	return core.GhostCeiling(cfg)
}
