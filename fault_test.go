package tess

import (
	"errors"
	"testing"
	"time"
)

// The public contract of the failure model: an injected rank crash at any
// pipeline step comes back from tess.Run as an error carrying a
// *RankError (and the ErrWorldAborted sentinel) — the host simulation's
// process survives, for both a small and a larger decomposition.
func TestRunContainsInjectedCrash(t *testing.T) {
	ps := testParticles(50, 8, 10)
	for _, blocks := range []int{2, 8} {
		for step := 1; step <= 4; step++ {
			cfg := NewPeriodicConfig(10)
			cfg.GhostSize = 3
			cfg.StallTimeout = 2 * time.Second
			cfg.Faults = &FaultPlan{Seed: 11, CrashRank: 0, CrashStep: step}
			_, err := Run(cfg, ps, blocks)
			if err == nil {
				t.Fatalf("blocks=%d step=%d: no error from crashed run", blocks, step)
			}
			var re *RankError
			if !errors.As(err, &re) || re.Rank != 0 {
				t.Fatalf("blocks=%d step=%d: err %v, want *RankError for rank 0", blocks, step, err)
			}
			var crash *FaultCrash
			if !errors.As(err, &crash) || crash.Step != step {
				t.Fatalf("blocks=%d step=%d: err %v lacks the injected crash", blocks, step, err)
			}
			if !errors.Is(err, ErrWorldAborted) {
				t.Errorf("blocks=%d step=%d: err %v does not match ErrWorldAborted", blocks, step, err)
			}
		}
	}
}

// A fault-free config (Faults nil) and an inert plan under an armed
// watchdog behave identically: the two runs agree cell for cell.
func TestInertFaultPlanAndWatchdogChangeNothing(t *testing.T) {
	ps := testParticles(51, 6, 10)
	cfg := NewPeriodicConfig(10)
	cfg.GhostSize = 3
	a, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultPlan{Seed: 1} // present but injecting nothing
	cfg.StallTimeout = time.Second
	b, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Fatalf("counts diverge: %+v vs %+v", a.Counts, b.Counts)
	}
	rep := CompareAccuracy(a.Summaries(), b.Summaries(), 0)
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy %v, want 1", rep.Accuracy)
	}
}
