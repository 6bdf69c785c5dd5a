package core

import (
	"fmt"
	"math"

	"repro/internal/diy"
)

// EstimateGhost proposes a ghost size for a particle set: a multiple of the
// mean interparticle spacing (the paper: "the average cell size is on the
// order of the initial particle spacing", and the ghost region should be at
// least twice the cell size). factor <= 0 defaults to 4. The estimate is
// clamped to the largest ghost the decomposition supports.
func EstimateGhost(cfg Config, numParticles, numBlocks int, factor float64) (float64, error) {
	if numParticles <= 0 {
		return 0, fmt.Errorf("core: no particles to estimate from")
	}
	if factor <= 0 {
		factor = 4
	}
	spacing := math.Cbrt(cfg.Domain.Volume() / float64(numParticles))
	g := factor * spacing
	m, err := GhostCeiling(cfg, numBlocks)
	if err != nil {
		return 0, err
	}
	if g > m {
		g = m
	}
	return g, nil
}

// GhostCeiling is the largest ghost size cfg's decomposition strategy can
// support for numBlocks blocks, before any particles are seen, and the one
// statement of that rule: Open refuses a ghost above it, and tessd's spec
// check compares against the same number the same way. The regular grid
// is capped by its smallest block side, since the exchange reaches only
// the 26 adjacent blocks (the constraint DIY's nearest-neighbor exchange
// has). RCB links are built for the ghost itself, so its leaves may be
// arbitrarily thin; it is capped by the single-wrap periodic-image
// constraint (half the smallest domain side), or by the largest domain
// side when non-periodic (beyond which a wider ghost cannot reach anything
// new).
func GhostCeiling(cfg Config, numBlocks int) (float64, error) {
	if cfg.Decomposition != DecomposeRCB {
		d, err := diy.Decompose(cfg.Domain, numBlocks, cfg.Periodic)
		if err != nil {
			return 0, err
		}
		return d.GhostCapacity(), nil
	}
	if numBlocks <= 0 || cfg.Domain.Empty() {
		return 0, fmt.Errorf("core: cannot cut domain %+v into %d RCB blocks", cfg.Domain, numBlocks)
	}
	s := cfg.Domain.Size()
	if cfg.Periodic {
		return math.Min(s.X, math.Min(s.Y, s.Z)) / 2, nil
	}
	return math.Max(s.X, math.Max(s.Y, s.Z)), nil
}

// AutoRun addresses the paper's stated follow-up of determining the ghost
// size automatically (Sec. IV-A, Sec. V): it starts from EstimateGhost and
// retessellates with a grown ghost region until every cell is proven
// complete or the decomposition's maximum ghost is reached. It returns the
// output of the final attempt and the ghost size that produced it. Every
// attempt writes where opts say, so the last one's file is what remains.
//
// The retry loop is safe because incomplete cells are detected, never
// silently wrong: an insufficient ghost manifests as Counts.Incomplete > 0.
// Cells deleted by the volume thresholds do not trigger retries.
func AutoRun(cfg Config, particles []diy.Particle, numBlocks int, opts ...StepOption) (*Output, float64, error) {
	if cfg.GhostSize <= 0 {
		g, err := EstimateGhost(cfg, len(particles), numBlocks, 0)
		if err != nil {
			return nil, 0, err
		}
		cfg.GhostSize = g
	}
	maxGhost, err := GhostCeiling(cfg, numBlocks)
	if err != nil {
		return nil, 0, err
	}
	if cfg.GhostSize > maxGhost {
		cfg.GhostSize = maxGhost
	}

	const growth = 1.6
	for {
		out, err := Run(cfg, particles, numBlocks, opts...)
		if err != nil {
			return nil, 0, err
		}
		if out.Counts.Incomplete == 0 {
			return out, cfg.GhostSize, nil
		}
		if cfg.GhostSize >= maxGhost {
			// The decomposition cannot host a wider ghost; report the best
			// achievable result with its incompleteness visible.
			return out, cfg.GhostSize, nil
		}
		cfg.GhostSize = math.Min(cfg.GhostSize*growth, maxGhost)
	}
}
