package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/density"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/obs"
)

// prefetchFixture is a recorded two-block session over 8³ N-body snapshots
// and the density.Compute oracle of the config it resolves.
type prefetchFixture struct {
	t     *testing.T
	s     *Session
	snaps [][]diy.Particle
	dc    density.Config
	base  int // runtime.NumGoroutine before the session opened
}

func newPrefetchFixture(t *testing.T) *prefetchFixture {
	t.Helper()
	const ng = 8
	f := &prefetchFixture{t: t, snaps: evolvingSnapshots(t, ng, 3), dc: density.Config{GridN: 8, Spectrum: true}}
	f.base = runtime.NumGoroutine()
	cfg := baseConfig(float64(ng))
	cfg.Recorder = obs.NewRecorder(2)
	s, err := OpenSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.s = s
	t.Cleanup(func() { s.Close() })
	return f
}

// oracle is density.Compute over ps under dc as the session resolves it.
func (f *prefetchFixture) oracle(ps []diy.Particle, dc density.Config) *density.Result {
	f.t.Helper()
	cfg := f.s.cfg
	dc.Box, dc.Periodic, dc.Pad = cfg.Domain, cfg.Periodic, cfg.GhostSize
	pts := make([]geom.Vec3, len(ps))
	for i, p := range ps {
		pts[i] = p.Pos
	}
	res, err := density.Compute(dc, pts, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	return res
}

func (f *prefetchFixture) step(ps []diy.Particle) {
	f.t.Helper()
	if _, err := f.s.Step(ps); err != nil {
		f.t.Fatal(err)
	}
}

// density runs StepDensity, requires its grid to equal the oracle's and
// its prefetch counter to read want, and returns the result.
func (f *prefetchFixture) density(ps []diy.Particle, dc density.Config, want int64) *density.Result {
	f.t.Helper()
	res, err := f.s.StepDensity(ps, dc)
	if err != nil {
		f.t.Fatal(err)
	}
	ref := f.oracle(ps, dc)
	if !bytes.Equal(density.EncodeGrid(res.Grid), density.EncodeGrid(ref.Grid)) || res.Sample != ref.Sample {
		f.t.Fatal("grid differs from density.Compute")
	}
	if got := res.Obs.Counters[obs.CounterDensityPrefetched.String()]; len(got) != 2 || got[0] != want || got[1] != 0 {
		f.t.Fatalf("%s = %v, want %d on rank 0", obs.CounterDensityPrefetched, got, want)
	}
	return res
}

// closeAndCount closes the session and requires the goroutine count to
// come back to what it was before the session opened.
func (f *prefetchFixture) closeAndCount() {
	f.t.Helper()
	if err := f.s.Close(); err != nil {
		f.t.Fatal(err)
	}
	if f.s.pf != nil {
		f.t.Fatal("a build is still pending after Close")
	}
	// A joined goroutine has closed its channel but may not have returned.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > f.base {
		if time.Now().After(deadline) {
			f.t.Fatalf("%d goroutines after Close, %d before the session", runtime.NumGoroutine(), f.base)
		}
		time.Sleep(time.Millisecond)
	}
}

// shuffled returns ps in a fixed other order (7 is prime to the 8³
// snapshots' length, so i*7+3 visits every index once).
func shuffled(ps []diy.Particle) []diy.Particle {
	out := make([]diy.Particle, len(ps))
	for i := range ps {
		out[i] = ps[(i*7+3)%len(ps)]
	}
	return out
}

// Every way a Step and a StepDensity can follow each other gives the grid
// of density.Compute, and the prefetched build is used exactly when the
// config and the positions, in order, are the ones the Step had.
func TestPrefetchLifecycle(t *testing.T) {
	f := newPrefetchFixture(t)
	s0, s1, s2 := f.snaps[0], f.snaps[1], f.snaps[2]
	other := density.Config{GridN: 16}

	// No StepDensity yet: nothing to prefetch for.
	f.step(s0)
	if f.s.pf != nil {
		t.Fatal("a session that never ran StepDensity started a build")
	}
	// StepDensity with no Step before it, twice.
	f.density(s0, f.dc, 0)
	f.density(s1, f.dc, 0)
	// The same particles.
	f.step(s1)
	f.density(s1, f.dc, 1)
	// Moved particles.
	f.step(s2)
	f.density(s1, f.dc, 0)
	// The same positions reordered.
	f.step(s2)
	f.density(shuffled(s2), f.dc, 0)
	// A changed DensityConfig, and back: a new pipeline each time.
	f.step(s0)
	f.density(s0, other, 0)
	f.step(s1)
	f.density(s1, f.dc, 0)
	// Two Steps with no StepDensity between them.
	f.step(s2)
	f.step(s0)
	f.density(s0, f.dc, 1)

	// A Step rejected for a particle outside the domain joins the pending
	// build, starts none, and the next StepDensity triangulates itself.
	f.step(s1)
	bad := append([]diy.Particle(nil), s1...)
	bad[5].Pos = geom.V(-1, 0, 0)
	if _, err := f.s.Step(bad); err == nil {
		t.Fatal("a particle outside the domain was accepted")
	}
	if f.s.pf != nil {
		t.Fatal("a rejected Step left a build pending")
	}
	f.density(s1, f.dc, 0)
	f.closeAndCount()
}

// The trace shows a used build as rank 0's triangulate span inside the
// Step window, and StepDensity's wait for it as a span of its own.
func TestPrefetchTraced(t *testing.T) {
	f := newPrefetchFixture(t)
	f.step(f.snaps[0])
	f.density(f.snaps[0], f.dc, 0)
	f.step(f.snaps[1]) // resets the recorder: one Step window from here
	res := f.density(f.snaps[1], f.dc, 1)
	var tri, wait []obs.Span
	for _, sp := range res.Obs.Spans {
		switch sp.Phase {
		case obs.PhaseTriangulate:
			tri = append(tri, sp)
		case obs.PhaseTriangulateWait:
			wait = append(wait, sp)
		}
	}
	if len(tri) != 1 || tri[0].Rank != 0 || tri[0].Dur <= 0 {
		t.Fatalf("triangulate spans %+v, want one on rank 0", tri)
	}
	if len(wait) != 1 || wait[0].Rank != 0 {
		t.Fatalf("triangulate-wait spans %+v, want one on rank 0", wait)
	}
	// The build starts in the Step's window: after the Step reset the
	// recorder's epoch and before StepDensity began to wait. It has ended
	// by the end of the wait.
	if b, w := tri[0], wait[0]; b.Start < 0 || b.Start >= w.Start || b.Start+b.Dur > w.Start+w.Dur {
		t.Errorf("build %v+%v is not inside the Step window and the wait %v+%v", b.Start, b.Dur, w.Start, w.Dur)
	}
}

// A StepDensity result stays readable across the next Step, while the
// build that Step started runs on the same pipeline (under -race, a write
// to the loaned grid by the build is reported) and after it.
func TestPrefetchKeepsResultLoan(t *testing.T) {
	f := newPrefetchFixture(t)
	res := f.density(f.snaps[0], f.dc, 0)
	keep := res.Clone()
	f.step(f.snaps[1])
	if !reflect.DeepEqual(res, keep) {
		t.Fatal("the previous StepDensity's result changed while the next build ran")
	}
	f.s.joinPrefetch()
	if !reflect.DeepEqual(res, keep) {
		t.Fatal("the next Step's build changed the previous StepDensity's result")
	}
	f.density(f.snaps[1], f.dc, 0) // the build was claimed above: a miss
}

// Abort and Close with a build pending: the session fails with the cause
// and no goroutine outlives it.
func TestPrefetchAbortAndClosePending(t *testing.T) {
	for _, abort := range []bool{false, true} {
		t.Run(fmt.Sprintf("abort=%v", abort), func(t *testing.T) {
			f := newPrefetchFixture(t)
			f.density(f.snaps[0], f.dc, 0)
			f.step(f.snaps[1])
			if f.s.pf == nil {
				t.Fatal("no build pending after a Step")
			}
			if abort {
				cause := errors.New("tenant canceled")
				f.s.Abort(cause)
				if _, err := f.s.StepDensity(f.snaps[1], f.dc); !errors.Is(err, cause) {
					t.Fatalf("StepDensity after Abort: %v, want the cause", err)
				}
			}
			f.closeAndCount()
		})
	}
}

// A panic in the prefetched build comes back from StepDensity as rank 0's
// structured error and leaves the session terminal; a build that panicked
// but is not used leaves the next StepDensity a fresh pipeline.
func TestPrefetchPanicContained(t *testing.T) {
	build := prefetchBuild
	t.Cleanup(func() { prefetchBuild = build })
	prefetchBuild = func(*density.Pipeline, []geom.Vec3) error { panic("injected build panic") }

	t.Run("used", func(t *testing.T) {
		f := newPrefetchFixture(t)
		f.density(f.snaps[0], f.dc, 0)
		f.step(f.snaps[1])
		_, err := f.s.StepDensity(f.snaps[1], f.dc)
		var re *comm.RankError
		if !errors.As(err, &re) || re.Rank != 0 || re.Stack == nil {
			t.Fatalf("StepDensity after a panicked build: %v, want rank 0's RankError with a stack", err)
		}
		if _, err := f.s.StepDensity(f.snaps[1], f.dc); err == nil {
			t.Fatal("session not terminal after the build's panic")
		}
		f.closeAndCount()
	})
	t.Run("unused", func(t *testing.T) {
		f := newPrefetchFixture(t)
		f.density(f.snaps[0], f.dc, 0)
		f.step(f.snaps[1])
		f.density(f.snaps[2], f.dc, 0)
		f.closeAndCount()
	})
}

// A prefetched build is used only when sameDensityConfig holds, so that
// must compare every field of density.Config: changing any one of them,
// found by reflection, makes the configs differ.
func TestSameDensityConfigComparesEveryField(t *testing.T) {
	base := density.Config{
		GridN: 8, Box: geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4)), Periodic: true, Pad: 1,
		Spectrum: true, Percentiles: []float64{5, 50}, VoidThreshold: 0.2,
	}
	if !sameDensityConfig(base, base) {
		t.Fatal("a config differs from itself")
	}
	// change moves every leaf of v, so a struct field differs whichever
	// leaf the comparison reads.
	var change func(v reflect.Value)
	change = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Struct:
			for i := range v.NumField() {
				change(v.Field(i))
			}
		case reflect.Slice:
			c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			reflect.Copy(c, v) // base keeps its own backing array
			change(c.Index(0))
			v.Set(c)
		default:
			t.Fatalf("no change for kind %v: extend this test and sameDensityConfig", v.Kind())
		}
	}
	typ := reflect.TypeOf(base)
	for i := range typ.NumField() {
		other := base
		change(reflect.ValueOf(&other).Elem().Field(i))
		if sameDensityConfig(base, other) || sameDensityConfig(other, base) {
			t.Errorf("field %s changed, but sameDensityConfig still holds", typ.Field(i).Name)
		}
	}
}
