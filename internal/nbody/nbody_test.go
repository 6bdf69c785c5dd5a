package nbody

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/fft"
	"repro/internal/geom"
)

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Ng = 7
	if _, err := New(cfg); err == nil {
		t.Error("non-pow2 Ng accepted")
	}
	cfg = DefaultConfig(8)
	cfg.BoxSize = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero box accepted")
	}
	cfg = DefaultConfig(8)
	cfg.Dt = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative dt accepted")
	}
}

// NewFromParticles creates a simulation from explicit particle state
// (positions are wrapped into the box). Velocities may be nil for a cold
// start.
func NewFromParticles(cfg Config, pos, vel []geom.Vec3) (*Simulation, error) {
	if !fft.IsPow2(cfg.Ng) {
		return nil, fmt.Errorf("nbody: Ng = %d is not a power of two", cfg.Ng)
	}
	if vel == nil {
		vel = make([]geom.Vec3, len(pos))
	}
	if len(pos) != len(vel) {
		return nil, fmt.Errorf("nbody: %d positions but %d velocities", len(pos), len(vel))
	}
	p := make([]geom.Vec3, len(pos))
	for i := range pos {
		p[i] = cosmo.Wrap(pos[i], cfg.BoxSize)
	}
	v := append([]geom.Vec3(nil), vel...)
	s := &Simulation{Config: cfg, Pos: p, Vel: v}
	s.alloc()
	return s, nil
}

func TestNewFromParticlesWrapsAndCopies(t *testing.T) {
	cfg := DefaultConfig(8)
	pos := []geom.Vec3{geom.V(9, -1, 3)}
	s, err := NewFromParticles(cfg, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pos[0] != geom.V(1, 7, 3) {
		t.Errorf("position not wrapped: %v", s.Pos[0])
	}
	pos[0] = geom.V(0, 0, 0)
	if s.Pos[0] == geom.V(0, 0, 0) {
		t.Error("simulation aliased caller's slice")
	}
	if _, err := NewFromParticles(cfg, make([]geom.Vec3, 3), make([]geom.Vec3, 2)); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestDepositCICConservation(t *testing.T) {
	cfg := DefaultConfig(8)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.DepositCIC()
	// Density contrast must average to zero (mass conservation).
	var sum float64
	for _, v := range g.Data {
		sum += real(v)
		if math.Abs(imag(v)) > 1e-12 {
			t.Fatal("imaginary density")
		}
	}
	if math.Abs(sum/float64(len(g.Data))) > 1e-10 {
		t.Errorf("mean delta = %v, want 0", sum/float64(len(g.Data)))
	}
}

func TestUniformLatticeHasNoForce(t *testing.T) {
	// Particles exactly on the lattice give delta == 0 everywhere, so all
	// accelerations vanish.
	cfg := DefaultConfig(8)
	pos := cosmo.LatticePositions(cfg.Ng, cfg.BoxSize)
	s, err := NewFromParticles(cfg, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := accelerations(s)
	for i, a := range acc {
		if a.Norm() > 1e-8 {
			t.Fatalf("lattice particle %d has acceleration %v", i, a)
		}
	}
}

func TestPairAttraction(t *testing.T) {
	// Two overdense particles embedded in a mean background should
	// accelerate toward each other along their separation axis.
	cfg := DefaultConfig(16)
	cfg.G = 10
	pos := cosmo.LatticePositions(cfg.Ng, cfg.BoxSize)
	// Add two extra particles separated along x, away from lattice sites.
	a := geom.V(6.2, 8.1, 8.1)
	b := geom.V(10.3, 8.1, 8.1)
	pos = append(pos, a, b)
	s, err := NewFromParticles(cfg, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := accelerations(s)
	fa := acc[len(acc)-2]
	fb := acc[len(acc)-1]
	if fa.X <= 0 {
		t.Errorf("particle a should accelerate toward +x, got %v", fa)
	}
	if fb.X >= 0 {
		t.Errorf("particle b should accelerate toward -x, got %v", fb)
	}
	// Transverse components are small compared to the axial pull.
	if math.Abs(fa.Y) > 0.5*math.Abs(fa.X) || math.Abs(fa.Z) > 0.5*math.Abs(fa.X) {
		t.Errorf("force not along separation: %v", fa)
	}
}

func TestMomentumConservation(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Cosmo.Seed = 21
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p0 := s.Momentum()
	for i := 0; i < 5; i++ {
		s.StepOnce()
	}
	p1 := s.Momentum()
	// PM forces are internal; total momentum drift should be tiny relative
	// to the total |velocity| scale.
	var scale float64
	for _, v := range s.Vel {
		scale += v.Norm()
	}
	if p1.Sub(p0).Norm() > 1e-6*math.Max(scale, 1) {
		t.Errorf("momentum drifted: %v -> %v", p0, p1)
	}
}

func TestStepAdvancesAndStaysInBox(t *testing.T) {
	cfg := DefaultConfig(8)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3, nil)
	if s.Step != 3 {
		t.Errorf("Step = %d, want 3", s.Step)
	}
	for _, p := range s.Pos {
		if p.X < 0 || p.X >= cfg.BoxSize || p.Y < 0 || p.Y >= cfg.BoxSize || p.Z < 0 || p.Z >= cfg.BoxSize {
			t.Fatalf("particle escaped box: %v", p)
		}
		if !p.IsFinite() {
			t.Fatal("non-finite position")
		}
	}
}

func TestRunHook(t *testing.T) {
	cfg := DefaultConfig(8)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	s.Run(4, func(sim *Simulation) { steps = append(steps, sim.Step) })
	if len(steps) != 4 || steps[0] != 1 || steps[3] != 4 {
		t.Errorf("hook steps = %v", steps)
	}
}

func TestClusteringGrows(t *testing.T) {
	// Gravity should amplify density fluctuations over time.
	cfg := DefaultConfig(16)
	cfg.Cosmo.Seed = 22
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.ClusteringAmplitude()
	s.Run(30, nil)
	after := s.ClusteringAmplitude()
	if after <= before {
		t.Errorf("clustering did not grow: %v -> %v", before, after)
	}
	if after > 100 {
		t.Errorf("clustering blew up: %v", after)
	}
}

func TestCICWeightsPartitionOfUnity(t *testing.T) {
	for _, x := range []float64{0, 0.1, 0.499, 0.5, 0.51, 3.7, 7.99} {
		i0, i1, w0, w1 := cosmo.CICWeights(x, 1, 8)
		if math.Abs(w0+w1-1) > 1e-12 {
			t.Errorf("weights at %v don't sum to 1: %v + %v", x, w0, w1)
		}
		if w0 < 0 || w1 < 0 {
			t.Errorf("negative weight at %v: %v, %v", x, w0, w1)
		}
		if i0 < 0 || i0 > 7 || i1 < 0 || i1 > 7 {
			t.Errorf("index out of range at %v: %d, %d", x, i0, i1)
		}
	}
}

func TestCICWeightsCellCenterIsDelta(t *testing.T) {
	// A particle exactly at a cell center deposits all its mass in that
	// cell.
	i0, _, w0, w1 := cosmo.CICWeights(2.5, 1, 8)
	if i0 != 2 || math.Abs(w0-1) > 1e-12 || math.Abs(w1) > 1e-12 {
		t.Errorf("center weights: i0=%d w0=%v w1=%v", i0, w0, w1)
	}
}

func BenchmarkStep16(b *testing.B) {
	cfg := DefaultConfig(16)
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepOnce()
	}
}

func TestPowerSpectrumGrowsUnderGravity(t *testing.T) {
	// Integration across substrates: evolving the PM simulation amplifies
	// the large-scale matter power spectrum (linear growth).
	cfg := DefaultConfig(16)
	cfg.Cosmo.Seed = 134
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, err := cosmo.PowerSpectrum(s.Pos, cfg.Ng, cfg.BoxSize, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(40, nil)
	after, err := cosmo.PowerSpectrum(s.Pos, cfg.Ng, cfg.BoxSize, 5)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].P <= before[0].P {
		t.Errorf("low-k power did not grow: %.4f -> %.4f", before[0].P, after[0].P)
	}
}

func TestPotentialEnergy(t *testing.T) {
	// A uniform lattice has zero fluctuation potential.
	cfg := DefaultConfig(8)
	lattice, err := NewFromParticles(cfg, cosmo.LatticePositions(cfg.Ng, cfg.BoxSize), nil)
	if err != nil {
		t.Fatal(err)
	}
	if u := lattice.PotentialEnergy(); math.Abs(u) > 1e-8 {
		t.Errorf("lattice potential = %v, want ~0", u)
	}
	// A clustered state is gravitationally bound: U < 0, and collapsing
	// further makes it more negative.
	cfg.Cosmo.Seed = 138
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u0 := s.PotentialEnergy()
	if u0 >= 0 {
		t.Errorf("perturbed IC potential = %v, want negative", u0)
	}
	s.Run(30, nil)
	u1 := s.PotentialEnergy()
	if u1 >= u0 {
		t.Errorf("potential did not deepen under collapse: %v -> %v", u0, u1)
	}
}

// accelerations is the current PM acceleration of every particle.
func accelerations(s *Simulation) []geom.Vec3 {
	s.solveForces()
	acc := make([]geom.Vec3, len(s.Pos))
	for i, p := range s.Pos {
		acc[i] = s.forceAt(p)
	}
	return acc
}
