package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/diy"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// pinProcs sets GOMAXPROCS to n until the test ends: the budget's total is
// GOMAXPROCS, so a test of its arithmetic fixes it.
func pinProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// idleSharedBudget returns the process-wide budget, failing the test if a
// session is still registered with it (a leaked session would skew every
// share the test expects).
func idleSharedBudget(t *testing.T) *WorkerBudget {
	t.Helper()
	b := SharedWorkerBudget()
	if p, r := b.Active(); p != 0 || r != 0 {
		t.Fatalf("shared budget busy at test start: Active = (%d, %d)", p, r)
	}
	return b
}

func TestWorkerBudgetTotals(t *testing.T) {
	pinProcs(t, 8)
	b := new(WorkerBudget)
	if got := b.Total(); got != 8 {
		t.Errorf("Total = %d, want GOMAXPROCS 8", got)
	}
	runtime.GOMAXPROCS(3)
	if got := b.Total(); got != 3 {
		t.Errorf("Total after GOMAXPROCS(3) = %d, want 3", got)
	}
	if SharedWorkerBudget() == nil {
		t.Fatal("no process-wide shared budget")
	}
}

// The fair-share arithmetic: total divided by all active ranks, floored at
// one worker per rank, with the asking pipeline's own ranks as the minimum
// denominator for unregistered callers.
func TestWorkerBudgetWorkersPerRank(t *testing.T) {
	pinProcs(t, 8)
	b := new(WorkerBudget)

	// Nobody registered: classic single-tenant division by own ranks.
	for _, tc := range []struct{ ranks, want int }{
		{1, 8}, {2, 4}, {3, 2}, {8, 1}, {16, 1}, {0, 8},
	} {
		if got := b.WorkersPerRank(tc.ranks); got != tc.want {
			t.Errorf("idle budget WorkersPerRank(%d) = %d, want %d", tc.ranks, got, tc.want)
		}
	}

	// Two pipelines of 2 ranks each: everyone divides by 4.
	b.acquire(2)
	b.acquire(2)
	if p, r := b.Active(); p != 2 || r != 4 {
		t.Fatalf("Active = (%d, %d), want (2, 4)", p, r)
	}
	if got := b.WorkersPerRank(2); got != 2 {
		t.Errorf("WorkersPerRank(2) with 4 active ranks = %d, want 2", got)
	}
	// An unregistered pipeline asking for more ranks than are active
	// divides by its own count.
	if got := b.WorkersPerRank(8); got != 1 {
		t.Errorf("WorkersPerRank(8) = %d, want 1", got)
	}

	// One pipeline leaves: back to dividing by 2.
	b.release(2)
	if got := b.WorkersPerRank(2); got != 4 {
		t.Errorf("WorkersPerRank(2) after release = %d, want 4", got)
	}
	b.release(2)
	if p, r := b.Active(); p != 0 || r != 0 {
		t.Fatalf("Active after full release = (%d, %d), want (0, 0)", p, r)
	}
}

func TestWorkerBudgetMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("acquire(0)", func() { new(WorkerBudget).acquire(0) })
	mustPanic("release underflow", func() { new(WorkerBudget).release(1) })
}

// EffectiveWorkers draws on the process-wide budget: an explicit Workers
// pin wins, otherwise the fair share among every registered rank.
func TestEffectiveWorkersUsesBudget(t *testing.T) {
	pinProcs(t, 12)
	b := idleSharedBudget(t)
	if got := EffectiveWorkers(Config{}, 3); got != 4 {
		t.Errorf("EffectiveWorkers(GOMAXPROCS 12, 3 ranks) = %d, want 4", got)
	}
	if got := EffectiveWorkers(Config{Workers: 2}, 3); got != 2 {
		t.Errorf("EffectiveWorkers with Workers pin = %d, want 2", got)
	}
	// This pipeline and a peer register 3 ranks each: 12 / 6.
	b.acquire(3)
	b.acquire(3)
	defer b.release(3)
	defer b.release(3)
	if got := EffectiveWorkers(Config{}, 3); got != 2 {
		t.Errorf("EffectiveWorkers beside a peer 3-rank pipeline = %d, want 2", got)
	}
}

// Concurrent sessions divide the process-wide budget for their whole
// lifetime: the fix for N sessions each assuming GOMAXPROCS is all theirs.
// Closing a session returns its share, and double Close releases only once.
func TestSessionsShareWorkerBudget(t *testing.T) {
	pinProcs(t, 16)
	b := idleSharedBudget(t)
	cfg := baseConfig(10)

	s1, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := EffectiveWorkers(cfg, 2); got != 8 {
		t.Errorf("one session of 2 ranks: EffectiveWorkers = %d, want 8", got)
	}
	s2, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p, r := b.Active(); p != 2 || r != 4 {
		t.Fatalf("Active with two sessions = (%d, %d), want (2, 4)", p, r)
	}
	if got := EffectiveWorkers(cfg, 2); got != 4 {
		t.Errorf("two sessions of 2 ranks: EffectiveWorkers = %d, want 4", got)
	}

	// The division is advisory only: both sessions still produce output
	// (byte-identity across worker counts is pinned elsewhere).
	rng := rand.New(rand.NewSource(5))
	ps := perturbedParticles(rng, 6, 10, 0.3)
	if _, err := s1.Step(ps); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Step(ps); err != nil {
		t.Fatal(err)
	}

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := EffectiveWorkers(cfg, 2); got != 8 {
		t.Errorf("after one Close: EffectiveWorkers = %d, want 8", got)
	}
	if err := s1.Close(); err != nil { // idempotent: must not release twice
		t.Fatal(err)
	}
	if p, r := b.Active(); p != 1 || r != 2 {
		t.Fatalf("Active after double Close = (%d, %d), want (1, 2)", p, r)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if p, r := b.Active(); p != 0 || r != 0 {
		t.Fatalf("Active after all Closes = (%d, %d), want (0, 0)", p, r)
	}
}

// A RunTimed session has one rank in flight and is accounted as such: at
// GOMAXPROCS 8 with 4 blocks every rank's turn at compute runs 8 workers
// (the whole machine), not the 2 a concurrent session's ranks would share,
// and peers on the budget see one active rank.
func TestRunTimedRanksKeepWholeBudget(t *testing.T) {
	pinProcs(t, 8)
	b := idleSharedBudget(t)
	cfg := baseConfig(8)
	ps := perturbedParticles(rand.New(rand.NewSource(6)), 8, 8, 0.3)

	s, err := openSession(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p, r := b.Active(); p != 1 || r != 1 {
		t.Errorf("Active during a timed pass = (%d, %d), want (1, 1)", p, r)
	}
	if _, err := s.Step(ps); err != nil {
		t.Fatal(err)
	}
	for rank := range s.ranks {
		// The compute phase creates one scratch per worker it was given.
		if got := len(s.ranks[rank].cb.scratches); got != 8 {
			t.Errorf("rank %d computed with %d workers, want 8", rank, got)
		}
	}
	s.Close()

	// RunTimed hands the budget back on every path.
	bad := append([]diy.Particle(nil), ps...)
	bad[0].Pos.X = -1
	crash := cfg
	crash.Faults = &faultinject.Plan{Seed: 5, CrashRank: 2, CrashStep: 2}
	sized := cfg
	sized.Recorder = obs.NewRecorder(3)
	for _, tc := range []struct {
		name    string
		cfg     Config
		ps      []diy.Particle
		wantErr bool
	}{
		{"success", cfg, ps, false},
		{"particle outside domain", cfg, bad, true},
		{"rank crash", crash, ps, true},
		{"recorder size mismatch", sized, ps, true},
	} {
		if _, err := RunTimed(tc.cfg, tc.ps, 4); (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if p, r := b.Active(); p != 0 || r != 0 {
			t.Errorf("%s: Active after RunTimed = (%d, %d), want (0, 0)", tc.name, p, r)
		}
	}
}
