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

// The triangulation's work counts land on rank 0 of the recorder, exact
// and repeatable: a second session over the same snapshot counts the same.
func TestStepDensityCountsTriangulation(t *testing.T) {
	const ng = 8
	snaps := evolvingSnapshots(t, ng, 1)
	names := []string{CounterDelaunayPoints, CounterDelaunayTetsCreated, CounterDelaunayPeakSlots,
		CounterDelaunayWalkSteps, CounterDelaunayInSphere}
	var runs [2][]int64
	for i := range runs {
		cfg := baseConfig(float64(ng))
		cfg.Recorder = obs.NewRecorder(2)
		s, err := OpenSession(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.StepDensity(snaps[0], density.Config{GridN: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			c := res.Obs.Counters[name]
			if len(c) != 2 || c[0] <= 0 || c[1] != 0 {
				t.Errorf("counter %s = %v, want a positive count on rank 0 only", name, c)
				continue
			}
			runs[i] = append(runs[i], c[0])
		}
		if got := res.Obs.Counters[CounterDelaunayPoints][0]; got != int64(res.Padded) {
			t.Errorf("%s = %d, want the %d padded points", CounterDelaunayPoints, got, res.Padded)
		}
		if created, tets := res.Obs.Counters[CounterDelaunayTetsCreated][0], int64(res.Tets); created < tets {
			t.Errorf("%d tets created but %d in the result", created, tets)
		}
		s.Close()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("counts differ between two sessions: %v vs %v", runs[0], runs[1])
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
