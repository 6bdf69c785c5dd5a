package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/density"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/obs"
)

// The density pipeline's central contract, mirroring the MergeCanonical
// oracle: every StepDensity — any block count, any worker count, warm or
// cold — produces grid bytes identical to a direct single-process
// density.Compute of the same particles.
func TestStepDensityByteIdenticalAcrossDecompositions(t *testing.T) {
	const ng, steps = 8, 3
	snaps := evolvingSnapshots(t, ng, steps)
	cfg := baseConfig(float64(ng))
	dc := density.Config{GridN: 16, Spectrum: true}

	// Reference: the direct run, with the defaults a session applies.
	refCfg := dc
	refCfg.Box = cfg.Domain
	refCfg.Periodic = cfg.Periodic
	refCfg.Pad = cfg.GhostSize
	var refs [][]byte
	var refResults []*density.Result
	for _, ps := range snaps {
		pts := make([]geom.Vec3, len(ps))
		for i, p := range ps {
			pts[i] = p.Pos
		}
		res, err := density.Compute(refCfg, pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, density.EncodeGrid(res.Grid))
		refResults = append(refResults, res)
	}

	for _, blocks := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("blocks=%d/workers=%d", blocks, workers), func(t *testing.T) {
				scfg := cfg
				scfg.Workers = workers
				s, err := OpenSession(scfg, blocks)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for step, ps := range snaps {
					res, err := s.StepDensity(ps, dc)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if !bytes.Equal(density.EncodeGrid(res.Grid), refs[step]) {
						t.Fatalf("step %d: grid bytes differ from direct density.Compute", step)
					}
					if res.Sample != refResults[step].Sample {
						t.Errorf("step %d: sample stats %+v != %+v", step, res.Sample, refResults[step].Sample)
					}
					if !reflect.DeepEqual(res.Stats, refResults[step].Stats) {
						t.Errorf("step %d: stats differ:\n  got  %+v\n  want %+v",
							step, res.Stats, refResults[step].Stats)
					}
				}
			})
		}
	}
}

func TestStepDensityRecordsPhases(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 1)
	cfg := baseConfig(float64(ng))
	cfg.Recorder = obs.NewRecorder(2)
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.StepDensity(snaps[0], density.Config{GridN: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("no obs snapshot on a recorded session")
	}
	if res.Obs.SlowestRank(obs.PhaseTriangulate) <= 0 {
		t.Error("no triangulate span recorded")
	}
	if res.Obs.SlowestRank(obs.PhaseInterpolate) <= 0 {
		t.Error("no interpolate span recorded")
	}
	if res.Obs.SlowestRank(obs.PhaseSpectrum) <= 0 {
		t.Error("no spectrum span recorded")
	}
}

// Which counters a snapshot lists does not depend on the session's
// history: a Step before any StepDensity, the StepDensity, and a Step
// after it (which also starts the prefetch) list the same names.
func TestCounterNamesIndependentOfHistory(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 2)
	cfg := baseConfig(float64(ng))
	cfg.Recorder = obs.NewRecorder(2)
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before, err := s.Step(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	want := before.Obs.CounterNames
	dens, err := s.StepDensity(snaps[0], density.Config{GridN: 8})
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.Step(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		name string
		snap *obs.Snapshot
	}{{"StepDensity", dens.Obs}, {"Step after StepDensity", after.Obs}} {
		if !reflect.DeepEqual(got.snap.CounterNames, want) {
			t.Errorf("%s lists counters %v, the first Step %v", got.name, got.snap.CounterNames, want)
		}
		if len(got.snap.Counters) != len(want) {
			t.Errorf("%s: %d counters for %d names", got.name, len(got.snap.Counters), len(want))
		}
	}
}

// The triangulation's work counts land on rank 0 of the recorder, exact
// and repeatable: a session that triangulates the snapshot itself and one
// that uses the build its Step started count the same, and the
// density-prefetched counter tells them apart.
func TestStepDensityCountsTriangulation(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 2)
	names := []obs.Counter{obs.CounterDelaunayPoints, obs.CounterDelaunayTetsCreated, obs.CounterDelaunayPeakSlots,
		obs.CounterDelaunayWalkSteps, obs.CounterDelaunayInSphere}
	var runs [2][]int64
	for i := range runs {
		prefetched := i == 1
		cfg := baseConfig(float64(ng))
		cfg.Recorder = obs.NewRecorder(2)
		s, err := OpenSession(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if prefetched {
			// A StepDensity arms the prefetch; the Step after it resets
			// the recorder and starts the build the next StepDensity uses.
			_, err := s.Step(snaps[1])
			if err == nil {
				_, err = s.StepDensity(snaps[1], density.Config{GridN: 8})
			}
			if err == nil {
				_, err = s.Step(snaps[0])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.StepDensity(snaps[0], density.Config{GridN: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			c := res.Obs.Counters[name.String()]
			if len(c) != 2 || c[0] <= 0 || c[1] != 0 {
				t.Errorf("counter %s = %v, want a positive count on rank 0 only", name, c)
				continue
			}
			runs[i] = append(runs[i], c[0])
		}
		want := []int64{0, 0}
		if prefetched {
			want[0] = 1
		}
		if got := res.Obs.Counters[obs.CounterDensityPrefetched.String()]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", obs.CounterDensityPrefetched, got, want)
		}
		if got := res.Obs.Counters[obs.CounterDelaunayPoints.String()][0]; got != int64(res.Padded) {
			t.Errorf("%s = %d, want the %d padded points", obs.CounterDelaunayPoints, got, res.Padded)
		}
		if created, tets := res.Obs.Counters[obs.CounterDelaunayTetsCreated.String()][0], int64(res.Tets); created < tets {
			t.Errorf("%d tets created but %d in the result", created, tets)
		}
		s.Close()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("counts differ between a built and a prefetched triangulation: %v vs %v", runs[0], runs[1])
	}
}

// An injected crash at the density checkpoint must degrade like any other
// rank failure: a structured error now, a terminally failed session after.
func TestStepDensityFaultContainment(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 1)
	cfg := baseConfig(float64(ng))
	cfg.StallTimeout = 2 * time.Second
	cfg.Faults = &faultinject.Plan{Seed: 11, CrashRank: 1, CrashStep: 1}
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.StepDensity(snaps[0], density.Config{GridN: 8})
	if err == nil {
		t.Fatal("injected crash produced no error")
	}
	var re *comm.RankError
	if !errors.As(err, &re) {
		t.Fatalf("crash error %v does not carry a RankError", err)
	}
	if _, err := s.StepDensity(snaps[0], density.Config{GridN: 8}); err == nil {
		t.Fatal("session not terminal after an aborted density step")
	}
}

// Density steps and tessellation steps interleave on one session: the
// snapshot's Step output and StepDensity grid must both match their
// standalone references.
func TestStepDensityInterleavesWithTessellation(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 2)
	cfg := baseConfig(float64(ng))
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dc := density.Config{GridN: 8}
	refCfg := dc
	refCfg.Box = cfg.Domain
	refCfg.Periodic = true
	refCfg.Pad = cfg.GhostSize
	for step, ps := range snaps {
		out, err := s.Step(ps)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := Run(cfg, ps, 2)
		if err != nil {
			t.Fatal(err)
		}
		if out.Counts != want.Counts {
			t.Errorf("step %d: tessellation counts diverge after density interleaving", step)
		}
		res, err := s.StepDensity(ps, dc)
		if err != nil {
			t.Fatalf("density step %d: %v", step, err)
		}
		pts := make([]geom.Vec3, len(ps))
		for i, p := range ps {
			pts[i] = p.Pos
		}
		ref, err := density.Compute(refCfg, pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(density.EncodeGrid(res.Grid), density.EncodeGrid(ref.Grid)) {
			t.Fatalf("step %d: interleaved density grid differs from direct run", step)
		}
	}
}

// BenchmarkStepThenDensity times one density-warm op: Step then StepDensity
// over a 16³ N-body snapshot on 4 blocks, warm, so the StepDensity uses the
// triangulation its Step started. Ops alternate between two snapshots.
func BenchmarkStepThenDensity(b *testing.B) {
	const ng = 16
	snaps := evolvingSnapshots(b, ng, 2)
	s, err := OpenSession(baseConfig(float64(ng)), 4)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	dc := density.Config{GridN: 32, Spectrum: true}
	op := func(i int) {
		ps := snaps[i%len(snaps)]
		if _, err := s.Step(ps); err != nil {
			b.Fatal(err)
		}
		if _, err := s.StepDensity(ps, dc); err != nil {
			b.Fatal(err)
		}
	}
	op(1) // arms the prefetch and warms every buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}
