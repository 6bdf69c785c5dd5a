package jobd

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	tess "repro"
)

// linkReach is the widest ghost a spec's session hosts: the number Validate
// and tess.Open both hold the ghost to.
func linkReach(s *JobSpec) float64 {
	return tess.MaxGhostFor(s.config(0))
}

// validInline is a minimal passing inline spec to mutate per case.
func validInline() JobSpec {
	return JobSpec{
		L:      8,
		Blocks: 2,
		Snapshots: [][][3]float64{
			{{1, 1, 1}, {4, 4, 4}, {7, 7, 7}},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		limits Limits
		wantOK bool
		// open: tess.Open must agree with Validate on the spec's config, so
		// a ghost the daemon refuses is one the library refuses.
		open bool
	}{
		{name: "valid inline", mutate: func(s *JobSpec) {}, wantOK: true},
		{name: "valid sim", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 0
			s.Sim = &SimSpec{NG: 8, Steps: 2}
		}, wantOK: true},
		{name: "sim with matching l", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 8
			s.Sim = &SimSpec{NG: 8, Steps: 2}
		}, wantOK: true},
		{name: "sim with conflicting l", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 10
			s.Sim = &SimSpec{NG: 8, Steps: 2}
		}},
		{name: "no domain", mutate: func(s *JobSpec) { s.L = 0 }},
		{name: "negative domain", mutate: func(s *JobSpec) { s.L = -1 }},
		{name: "no blocks", mutate: func(s *JobSpec) { s.Blocks = 0 }},
		{name: "both sources", mutate: func(s *JobSpec) { s.Sim = &SimSpec{NG: 8, Steps: 1} }},
		{name: "neither source", mutate: func(s *JobSpec) { s.Snapshots = nil }},
		{name: "empty snapshot", mutate: func(s *JobSpec) {
			s.Snapshots = append(s.Snapshots, nil)
		}},
		{name: "particle outside domain", mutate: func(s *JobSpec) {
			s.Snapshots[0][1] = [3]float64{4, 8, 4} // l is exclusive
		}},
		{name: "negative coordinate", mutate: func(s *JobSpec) {
			s.Snapshots[0][1] = [3]float64{4, -0.1, 4}
		}},
		{name: "NaN coordinate", mutate: func(s *JobSpec) {
			s.Snapshots[0][1] = [3]float64{4, math.NaN(), 4}
		}},
		{name: "bad decomposition", mutate: func(s *JobSpec) { s.Decomposition = "hilbert" }},
		{name: "rcb decomposition", mutate: func(s *JobSpec) { s.Decomposition = "rcb" }, wantOK: true},
		// The default ghost is 4, and either decomposition reaches half the
		// cube whatever its block count: past the 3 of a 6-cube, not past
		// the 8/3-wide blocks of 27 in an 8-cube.
		{name: "default ghost wider than a grid block", mutate: func(s *JobSpec) {
			s.L, s.Blocks = 6, 8
			s.Snapshots[0][2] = [3]float64{5, 5, 5}
		}},
		{name: "ghost a grid block wide", mutate: func(s *JobSpec) {
			s.L, s.Blocks, s.Ghost = 6, 8, 3
			s.Snapshots[0][2] = [3]float64{5, 5, 5}
		}, wantOK: true, open: true},
		{name: "ghost wider than a grid block", mutate: func(s *JobSpec) {
			s.Blocks, s.Ghost = 27, 3.5
		}, wantOK: true, open: true},
		// Three blocks of a 10-cube are 10/3 wide; the reach is 5 all the
		// same.
		{name: "ghost exactly a grid block's reach", mutate: func(s *JobSpec) {
			s.L, s.Blocks = 10, 3
			s.Ghost = linkReach(s)
		}, wantOK: true, open: true},
		{name: "ghost an ulp past a grid block's reach", mutate: func(s *JobSpec) {
			s.L, s.Blocks = 10, 3
			s.Ghost = math.Nextafter(linkReach(s), math.Inf(1))
		}, open: true},
		{name: "ghost exactly rcb's reach", mutate: func(s *JobSpec) {
			s.Decomposition = "rcb"
			s.Ghost = linkReach(s)
		}, wantOK: true, open: true},
		{name: "ghost an ulp past rcb's reach", mutate: func(s *JobSpec) {
			s.Decomposition = "rcb"
			s.Ghost = math.Nextafter(linkReach(s), math.Inf(1))
		}, open: true},
		{name: "negative ghost", mutate: func(s *JobSpec) { s.Ghost = -1 }},
		// A negative volume cull would run as off, and a max at or below
		// the min would cull every cell: both are refused, here and by
		// the session.
		{name: "negative min volume", mutate: func(s *JobSpec) { s.MinVolume = -1 }, open: true},
		{name: "negative max volume", mutate: func(s *JobSpec) { s.MaxVolume = -1 }, open: true},
		{name: "max volume at min volume", mutate: func(s *JobSpec) { s.MinVolume, s.MaxVolume = 1, 1 }, open: true},
		{name: "max volume below min volume", mutate: func(s *JobSpec) { s.MinVolume, s.MaxVolume = 1, 0.5 }, open: true},
		{name: "min and max volume", mutate: func(s *JobSpec) { s.MinVolume, s.MaxVolume = 0.1, 4 }, wantOK: true, open: true},
		{name: "default ghost beyond rcb's half cube", mutate: func(s *JobSpec) {
			s.L, s.Decomposition = 6, "rcb"
			s.Snapshots[0][2] = [3]float64{5, 5, 5}
		}},
		{name: "rcb ghost at half the cube", mutate: func(s *JobSpec) {
			s.L, s.Ghost, s.Decomposition = 6, 3, "rcb"
			s.Snapshots[0][2] = [3]float64{5, 5, 5}
		}, wantOK: true, open: true},
		{name: "sim ghost wider than a grid block", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 0
			s.Blocks = 27
			s.Sim = &SimSpec{NG: 8, Steps: 1}
		}, wantOK: true, open: true},
		{name: "sim ng too small", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 0
			s.Sim = &SimSpec{NG: 1, Steps: 1}
		}},
		{name: "sim ng not a power of two", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 0
			s.Sim = &SimSpec{NG: 12, Steps: 1}
		}},
		// 128^3 = 2 097 152 particles; 64^3 = 262 144.
		{name: "sim particles over limit", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 0
			s.Sim = &SimSpec{NG: 128, Steps: 1}
		}, limits: Limits{MaxParticles: 1_000_000}},
		{name: "sim particles inside limit", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 0
			s.Sim = &SimSpec{NG: 64, Steps: 1}
		}, limits: Limits{MaxParticles: 1_000_000}, wantOK: true},
		{name: "sim ng whose cube overflows int", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 0
			s.Sim = &SimSpec{NG: 1 << 40, Steps: 1}
		}, limits: Limits{MaxParticles: 1_000_000}},
		{name: "sim no steps", mutate: func(s *JobSpec) {
			s.Snapshots = nil
			s.L = 0
			s.Sim = &SimSpec{NG: 8}
		}},
		{name: "crash rank out of range", mutate: func(s *JobSpec) {
			s.Fault = &FaultSpec{CrashRank: 2, CrashStep: 1}
		}},
		{name: "crash rank valid", mutate: func(s *JobSpec) {
			s.Fault = &FaultSpec{CrashRank: 1, CrashStep: 1}
		}, wantOK: true},
		{name: "disarmed crash rank ignored", mutate: func(s *JobSpec) {
			s.Fault = &FaultSpec{CrashRank: 99} // CrashStep 0 disables crashing
		}, wantOK: true},
		{name: "negative delay", mutate: func(s *JobSpec) {
			s.Fault = &FaultSpec{SendDelayMaxMS: -1}
		}},
		{name: "blocks over limit", mutate: func(s *JobSpec) { s.Blocks = 3 },
			limits: Limits{MaxBlocks: 2}},
		{name: "steps over limit", mutate: func(s *JobSpec) {
			s.Snapshots = append(s.Snapshots, s.Snapshots[0])
		}, limits: Limits{MaxSteps: 1}},
		{name: "particles over limit", mutate: func(s *JobSpec) {},
			limits: Limits{MaxParticles: 2}},
		{name: "inside limits", mutate: func(s *JobSpec) {},
			limits: Limits{MaxBlocks: 2, MaxSteps: 1, MaxParticles: 3}, wantOK: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := validInline()
			tc.mutate(&spec)
			err := spec.Validate(tc.limits)
			if tc.wantOK && err != nil {
				t.Fatalf("Validate = %v, want ok", err)
			}
			if !tc.wantOK {
				if err == nil {
					t.Fatal("Validate passed, want error")
				}
				if !errors.Is(err, ErrBadSpec) {
					t.Fatalf("Validate error %v does not wrap ErrBadSpec", err)
				}
			}
			if tc.open {
				sess, oerr := tess.Open(spec.config(0), spec.Blocks)
				if oerr == nil {
					sess.Close()
				}
				if (oerr == nil) != (err == nil) {
					t.Errorf("Validate = %v, but tess.Open = %v", err, oerr)
				}
			}
		})
	}
}

// The ghost rejection names both numbers: what the spec asked for and the
// bound it passed, half the cube.
func TestSpecValidateGhostMessage(t *testing.T) {
	spec := validInline()
	spec.L, spec.Blocks = 6, 8
	spec.Snapshots[0][2] = [3]float64{5, 5, 5}
	err := spec.Validate(Limits{})
	if err == nil || !strings.Contains(err.Error(), "ghost = 4") || !strings.Contains(err.Error(), "reach 3, half the side-6 cube") {
		t.Fatalf("Validate = %v, want the ghost 4 and the reach 3 (half the side-6 cube) named", err)
	}
}

func TestSpecStepsAndDomain(t *testing.T) {
	inline := validInline()
	if inline.Steps() != 1 || inline.domainL() != 8 {
		t.Errorf("inline steps/domain = %d/%g, want 1/8", inline.Steps(), inline.domainL())
	}
	sim := JobSpec{Blocks: 2, Sim: &SimSpec{NG: 16, Steps: 5}}
	if sim.Steps() != 5 || sim.domainL() != 16 {
		t.Errorf("sim steps/domain = %d/%g, want 5/16", sim.Steps(), sim.domainL())
	}
}

func TestFaultSpecPlan(t *testing.T) {
	if (*FaultSpec)(nil).plan() != nil {
		t.Error("nil fault spec produced a plan")
	}
	p := (&FaultSpec{Seed: 7, CrashRank: 1, CrashStep: 3, ComputeDelayMaxMS: 2, SendDelayMaxMS: 5}).plan()
	if p.Seed != 7 || p.CrashRank != 1 || p.CrashStep != 3 {
		t.Errorf("plan crash fields = %+v", p)
	}
	if p.ComputeDelayMax != 2*time.Millisecond || p.SendDelayMax != 5*time.Millisecond {
		t.Errorf("plan delays = %v/%v, want 2ms/5ms", p.ComputeDelayMax, p.SendDelayMax)
	}
}

// The inline source assigns sequential IDs per snapshot (matching
// tess.ParticlesFromPositions) and replays snapshots in order.
func TestInlineSource(t *testing.T) {
	spec := JobSpec{
		L:      8,
		Blocks: 1,
		Snapshots: [][][3]float64{
			{{1, 2, 3}},
			{{4, 5, 6}, {7, 7, 7}},
		},
	}
	src, err := spec.source()
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.next()
	if err != nil || len(first) != 1 {
		t.Fatalf("first snapshot: %d particles, err %v", len(first), err)
	}
	if first[0].ID != 0 || first[0].Pos.X != 1 {
		t.Errorf("first particle = %+v", first[0])
	}
	second, err := src.next()
	if err != nil || len(second) != 2 {
		t.Fatalf("second snapshot: %d particles, err %v", len(second), err)
	}
	if second[1].ID != 1 || second[1].Pos.Z != 7 {
		t.Errorf("second snapshot particle 1 = %+v", second[1])
	}
}
