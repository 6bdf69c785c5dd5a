package core

import (
	"fmt"
	"math"

	"repro/internal/diy"
)

// EstimateGhost proposes a ghost size for a particle set: four mean
// interparticle spacings (the paper: "the average cell size is on the
// order of the initial particle spacing", and the ghost region should be at
// least twice the cell size), clamped to GhostCeiling.
func EstimateGhost(cfg Config, numParticles int) (float64, error) {
	if numParticles <= 0 {
		return 0, fmt.Errorf("core: no particles to estimate from")
	}
	spacing := math.Cbrt(cfg.Domain.Volume() / float64(numParticles))
	return math.Min(4*spacing, GhostCeiling(cfg)), nil
}

// GhostCeiling is the widest ghost a session over cfg's domain accepts,
// whatever its decomposition and block count, and the one statement of that
// rule: Open refuses a ghost above it, and tessd's spec check compares
// against the same number the same way. Every block links to each block its
// ghost region reaches under a single-wrap periodic image (internal/diy), so
// the ceiling is half the smallest side of a periodic domain, or the largest
// side of a bounded one (beyond which a wider ghost cannot reach anything
// new).
func GhostCeiling(cfg Config) float64 {
	s := cfg.Domain.Size()
	if cfg.Periodic {
		return math.Min(s.X, math.Min(s.Y, s.Z)) / 2
	}
	return math.Max(s.X, math.Max(s.Y, s.Z))
}

// AutoRun addresses the paper's stated follow-up of determining the ghost
// size automatically (Sec. IV-A, Sec. V): it starts from EstimateGhost and
// retessellates with a grown ghost region until every cell is proven
// complete or GhostCeiling is reached. It returns the
// output of the final attempt and the ghost size that produced it. Every
// attempt writes where opts say, so the last one's file is what remains.
//
// The retry loop is safe because incomplete cells are detected, never
// silently wrong: an insufficient ghost manifests as Counts.Incomplete > 0.
// Cells deleted by the volume thresholds do not trigger retries.
func AutoRun(cfg Config, particles []diy.Particle, numBlocks int, opts ...StepOption) (*Output, float64, error) {
	if cfg.GhostSize <= 0 {
		g, err := EstimateGhost(cfg, len(particles))
		if err != nil {
			return nil, 0, err
		}
		cfg.GhostSize = g
	}
	maxGhost := GhostCeiling(cfg)
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
			// No session hosts a wider ghost; report the best achievable
			// result with its incompleteness visible.
			return out, cfg.GhostSize, nil
		}
		cfg.GhostSize = math.Min(cfg.GhostSize*growth, maxGhost)
	}
}
