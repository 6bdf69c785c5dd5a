package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/faultinject"
)

// The headline containment guarantee: a seeded crash at any pipeline step
// of any rank surfaces as a structured *RankError from Run — no hang, no
// process exit — for both a small and a larger decomposition.
func TestCrashAtStepReturnsRankError(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ps := perturbedParticles(rng, 8, 10, 0.3)
	for _, blocks := range []int{2, 8} {
		for step := 1; step <= 4; step++ {
			cfg := baseConfig(10)
			cfg.StallTimeout = 2 * time.Second // belt and braces: any hang becomes a dump
			cfg.Faults = &faultinject.Plan{Seed: 9, CrashRank: 1, CrashStep: step}
			out, err := Run(cfg, ps, blocks)
			if err == nil {
				t.Fatalf("blocks=%d step=%d: Run returned output %v despite injected crash", blocks, step, out)
			}
			var re *comm.RankError
			if !errors.As(err, &re) {
				t.Fatalf("blocks=%d step=%d: err %v carries no *RankError", blocks, step, err)
			}
			if re.Rank != 1 {
				t.Errorf("blocks=%d step=%d: failing rank %d, want 1", blocks, step, re.Rank)
			}
			var crash *faultinject.Crash
			if !errors.As(err, &crash) {
				t.Fatalf("blocks=%d step=%d: err %v carries no *faultinject.Crash", blocks, step, err)
			}
			if crash.Step != step {
				t.Errorf("blocks=%d: crashed at step %d, want %d", blocks, crash.Step, step)
			}
			if !errors.Is(err, comm.ErrWorldAborted) {
				t.Errorf("blocks=%d step=%d: err %v does not match ErrWorldAborted", blocks, step, err)
			}
		}
	}
}

// A crash during the collective output phase must abort the peers blocked
// in CollectiveWrite's internal collectives, not leave them waiting.
func TestCrashDuringOutputAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ps := perturbedParticles(rng, 6, 10, 0.3)
	cfg := baseConfig(10)
	cfg.StallTimeout = 2 * time.Second
	cfg.Faults = &faultinject.Plan{Seed: 3, CrashRank: 0, CrashStep: 3} // step 3 = "output"
	_, err := Run(cfg, ps, 4, WithOutputPath(filepath.Join(t.TempDir(), "crash.tess")))
	var re *comm.RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("err %v, want *RankError for rank 0", err)
	}
}

// Injected delays stretch the schedule but must not change a single
// output byte: fault-free and delay-only runs are indistinguishable on
// disk (and injection disabled means a plan-free code path).
func TestDelayOnlyRunByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := perturbedParticles(rng, 6, 10, 0.3)
	dir := t.TempDir()

	run := func(name string, plan *faultinject.Plan) []byte {
		cfg := baseConfig(10)
		cfg.Faults = plan
		path := filepath.Join(dir, name)
		if _, err := Run(cfg, ps, 4, WithOutputPath(path)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	clean := run("clean.tess", nil)
	delayed := run("delayed.tess", &faultinject.Plan{
		Seed:            7,
		ComputeDelayMax: 2 * time.Millisecond,
		SendDelayMax:    time.Millisecond,
	})
	disabled := run("disabled.tess", &faultinject.Plan{Seed: 7}) // plan present but inert

	if string(clean) != string(delayed) {
		t.Errorf("delay-only run diverged from fault-free run (%d vs %d bytes)", len(clean), len(delayed))
	}
	if string(clean) != string(disabled) {
		t.Errorf("disabled plan diverged from fault-free run")
	}
}

// RunTimed gets the same containment: an injected crash during the turns
// comes back as an error, not a process exit.
func TestRunTimedCrashContained(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ps := perturbedParticles(rng, 6, 10, 0.3)
	cfg := baseConfig(10)
	cfg.Faults = &faultinject.Plan{Seed: 5, CrashRank: 2, CrashStep: 2}
	_, err := RunTimed(cfg, ps, 4)
	var re *comm.RankError
	if !errors.As(err, &re) {
		t.Fatalf("err %v carries no *RankError", err)
	}
	if re.Rank != 2 {
		t.Errorf("failing rank %d, want 2", re.Rank)
	}
	var crash *faultinject.Crash
	if !errors.As(err, &crash) || crash.Step != 2 {
		t.Errorf("err %v lacks the injected *Crash at step 2", err)
	}
}

// RunTimed's ranks are World.Run's ranks, so they share its containment: a
// crash at the output checkpoint — after the turns, with the peers entering
// the collective write — comes back as a *RankError, with or without the
// watchdog armed, and a healthy watched run is not taken for a stall while
// ranks wait their turn.
func TestRunTimedContainment(t *testing.T) {
	ps := perturbedParticles(rand.New(rand.NewSource(45)), 6, 10, 0.3)
	for _, stall := range []time.Duration{0, 2 * time.Second} {
		cfg := baseConfig(10)
		cfg.StallTimeout = stall
		cfg.Faults = &faultinject.Plan{Seed: 5, CrashRank: 1, CrashStep: 3} // step 3 = "output"
		_, err := RunTimed(cfg, ps, 4, WithOutputPath(filepath.Join(t.TempDir(), "crash.tess")))
		var re *comm.RankError
		var crash *faultinject.Crash
		if !errors.As(err, &re) || re.Rank != 1 || !errors.As(err, &crash) || crash.Step != 3 {
			t.Errorf("stall timeout %v: err %v, want rank 1's *RankError with the injected crash at step 3", stall, err)
		}
	}
	cfg := baseConfig(10)
	cfg.StallTimeout = 50 * time.Millisecond
	cfg.Faults = &faultinject.Plan{Seed: 5, ComputeDelayMax: 60 * time.Millisecond}
	if _, err := RunTimed(cfg, ps, 4); err != nil {
		t.Errorf("healthy watched RunTimed: %v", err)
	}
}

// With the watchdog armed and no fault injected, runs succeed and produce
// the same result as an unwatched run — the monitoring is observational.
func TestWatchdogTransparentOnHealthyRun(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ps := perturbedParticles(rng, 6, 10, 0.3)
	cfg := baseConfig(10)
	plain, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StallTimeout = 50 * time.Millisecond
	watched, err := Run(cfg, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counts != watched.Counts {
		t.Errorf("watchdog changed results: %+v vs %+v", plain.Counts, watched.Counts)
	}
}
