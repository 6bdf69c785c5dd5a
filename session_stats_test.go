package tess

import "testing"

// Regression guard for the session-stats lifecycle: SessionStats fields
// (Steps, WarmSites/ColdSites) are cumulative session state, while
// an attached Recorder is reset at every Step so its snapshot describes
// only the latest step. The per-step Reset must never bleed into the
// cumulative numbers, and the per-step counters must not accumulate.
func TestSessionStatsSurvivePerStepObsReset(t *testing.T) {
	rec := NewRecorder(2)
	cfg := NewPeriodicConfig(8, WithGhostSize(3), WithRecorder(rec))
	sess, err := Open(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const steps = 3
	n := int64(len(testParticles(1, 6, 8)))
	for step := 1; step <= steps; step++ {
		out, err := sess.Step(testParticles(int64(step), 6, 8))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		// The obs snapshot is per-step: its warm+cold site counts cover
		// exactly this step's sites, not the session's running total.
		if out.Obs == nil {
			t.Fatalf("step %d: no obs snapshot despite recorder", step)
		}
		var snapSites int64
		for _, name := range []string{"sites-warm", "sites-cold"} {
			for _, v := range out.Obs.Counters[name] {
				snapSites += v
			}
		}
		if snapSites != n {
			t.Errorf("step %d: obs snapshot counts %d sites, want %d (one step's worth)",
				step, snapSites, n)
		}

		// Session stats are cumulative: the recorder reset between steps
		// must not have clipped them back.
		st := sess.Stats()
		if st.Steps != step {
			t.Errorf("after step %d: Stats().Steps = %d", step, st.Steps)
		}
		if got := st.WarmSites + st.ColdSites; got != n*int64(step) {
			t.Errorf("after step %d: cumulative warm+cold = %d, want %d",
				step, got, n*int64(step))
		}
		if step == 1 && st.WarmSites != 0 {
			t.Errorf("first step classified %d sites warm, want 0 (all cold)", st.WarmSites)
		}
		if step > 1 && st.WarmSites == 0 {
			t.Errorf("after step %d: no warm sites despite small displacements", step)
		}
	}

	// Close keeps the cumulative stats readable.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Steps != steps || st.WarmSites+st.ColdSites != n*steps {
		t.Errorf("stats after Close = %+v, want %d steps over %d sites", st, steps, n*steps)
	}
}
