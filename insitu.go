package tess

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/geom"
	"repro/internal/nbody"
)

// InSituConfig describes a coupled simulation + analysis run: the N-body
// configuration, the tessellation configuration, how many steps to run, and
// how often to tessellate — the in situ cosmology-tools pattern of the
// paper's Figure 4 (analysis invoked at selected time steps, results saved
// to storage for postprocessing).
type InSituConfig struct {
	// Sim configures the particle-mesh N-body run (the HACC stand-in).
	Sim nbody.Config
	// Tess configures each tessellation pass. Its Domain must match the
	// simulation box; RunInSitu enforces this.
	Tess Config
	// Steps is the total number of simulation time steps.
	Steps int
	// Every invokes the tessellation after every Every-th step (and always
	// after the final step). Every <= 0 tessellates only at the end.
	Every int
	// Blocks is the number of parallel blocks (ranks).
	Blocks int
	// OutputDir, when non-empty, writes each snapshot's tessellation to
	// OutputDir/tess-step-NNNN.out.
	OutputDir string
}

// Snapshot is the result of one in situ analysis invocation.
type Snapshot struct {
	// Step is the simulation step after which the analysis ran.
	Step int
	// Output is the tessellation result for this step. It is a deep copy
	// owned by the snapshot (safe to keep across later steps).
	Output *Output
	// SimTime is the simulation wall time since the previous snapshot.
	SimTime time.Duration
	// TessTime is this snapshot's tessellation wall time.
	TessTime time.Duration
}

// RunInSitu runs the simulation with the tessellation embedded at selected
// time steps, through one persistent Session whose world, decomposition,
// and buffers are reused by every selected step. hook, when non-nil, is
// invoked after each snapshot (the run-time analysis attachment point); a
// non-nil hook error aborts the run cleanly — the session is closed, the
// simulation stops at that step, and the error is returned wrapped with
// the step it occurred at. It returns all snapshots in step order.
func RunInSitu(cfg InSituConfig, hook func(Snapshot) error) ([]Snapshot, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("tess: non-positive step count %d", cfg.Steps)
	}
	if err := cfg.Tess.Validate(cfg.Blocks); err != nil {
		return nil, err
	}
	simBox := geom.NewBox(geom.V(0, 0, 0), geom.V(cfg.Sim.BoxSize, cfg.Sim.BoxSize, cfg.Sim.BoxSize))
	if cfg.Tess.Domain != simBox {
		return nil, fmt.Errorf("tess: tessellation domain %+v does not match simulation box %+v",
			cfg.Tess.Domain, simBox)
	}
	if cfg.OutputDir != "" {
		if err := os.MkdirAll(cfg.OutputDir, 0o755); err != nil {
			return nil, err
		}
	}
	sim, err := nbody.New(cfg.Sim)
	if err != nil {
		return nil, err
	}
	sess, err := Open(cfg.Tess, cfg.Blocks)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	var snaps []Snapshot
	simStart := time.Now()
	var runErr error
	analyze := func(s *nbody.Simulation) {
		if runErr != nil {
			return
		}
		simTime := time.Since(simStart)
		var outputPath string
		if cfg.OutputDir != "" {
			outputPath = filepath.Join(cfg.OutputDir, fmt.Sprintf("tess-step-%04d.out", s.Step))
		}
		t0 := time.Now()
		out, err := sess.Step(ParticlesFromSim(s), WithOutputPath(outputPath))
		if err != nil {
			runErr = fmt.Errorf("tess: step %d: %w", s.Step, err)
			return
		}
		// Snapshots outlive the session's per-step output loan; clone.
		snap := Snapshot{Step: s.Step, Output: out.Clone(), SimTime: simTime, TessTime: time.Since(t0)}
		snaps = append(snaps, snap)
		if hook != nil {
			if err := hook(snap); err != nil {
				runErr = fmt.Errorf("tess: step %d: hook: %w", s.Step, err)
				return
			}
		}
		simStart = time.Now()
	}

	sim.Run(cfg.Steps, func(s *nbody.Simulation) {
		if runErr != nil {
			return
		}
		atInterval := cfg.Every > 0 && s.Step%cfg.Every == 0
		last := s.Step == cfg.Steps
		if atInterval || (last && (cfg.Every <= 0 || cfg.Steps%cfg.Every != 0)) {
			analyze(s)
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return snaps, nil
}
