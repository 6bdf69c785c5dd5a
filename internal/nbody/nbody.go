// Package nbody implements the particle-mesh (PM) gravity solver that
// stands in for HACC in this reproduction. It evolves equal-mass dark
// matter tracer particles in a periodic box using cloud-in-cell (CIC) mass
// assignment, an FFT Poisson solve for the potential, finite-difference
// gradients for the mesh force, CIC force interpolation back to particles,
// and a kick-drift-kick leapfrog integrator.
//
// The paper's tessellation analysis needs a particle distribution that
// evolves from a gently perturbed lattice into clustered structure (halos,
// filaments, voids); a PM solver is the spectral particle-mesh component of
// HACC's own force solver and produces exactly that morphology.
package nbody

import (
	"fmt"
	"math"

	"repro/internal/cosmo"
	"repro/internal/fft"
	"repro/internal/geom"
)

// Config describes a simulation.
type Config struct {
	// Ng is the number of grid points (and particles) per dimension; must
	// be a power of two.
	Ng int
	// BoxSize is the periodic box side length. The paper's convention is
	// BoxSize == Ng so particles start 1 Mpc/h apart.
	BoxSize float64
	// Dt is the integrator time step.
	Dt float64
	// G scales the gravitational acceleration; it absorbs 4*pi*G*rho_bar
	// and the time units. Larger values cluster faster.
	G float64
	// Cosmo parameterizes the initial conditions.
	Cosmo cosmo.Params
}

// DefaultConfig returns a configuration matching the paper's setup scaled
// to laptop size: ng = np per dimension, box size equal to ng, and the
// coupling tuned (together with cosmo.DefaultParams' IC amplitude) so that
// the density contrast evolves on the paper's schedule — quasi-linear
// around step ~11, mildly nonlinear by step ~31, deeply clustered with
// distinct voids by step ~100 (Figures 8, 9, 11).
func DefaultConfig(ng int) Config {
	return Config{
		Ng:      ng,
		BoxSize: float64(ng),
		Dt:      0.1,
		G:       0.5,
		Cosmo:   cosmo.DefaultParams(),
	}
}

// Simulation evolves particles under PM gravity.
type Simulation struct {
	Config Config
	Pos    []geom.Vec3
	Vel    []geom.Vec3
	Step   int

	rho       *fft.Grid3 // scratch: density/potential grid
	gridForce [3][]float64
}

// New creates a simulation with Zel'dovich initial conditions.
func New(cfg Config) (*Simulation, error) {
	if !fft.IsPow2(cfg.Ng) {
		return nil, fmt.Errorf("nbody: Ng = %d is not a power of two", cfg.Ng)
	}
	if cfg.BoxSize <= 0 {
		return nil, fmt.Errorf("nbody: non-positive box size %g", cfg.BoxSize)
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("nbody: non-positive time step %g", cfg.Dt)
	}
	pos, vel, err := cosmo.ZeldovichIC(cfg.Cosmo, cfg.Ng, cfg.BoxSize, 1)
	if err != nil {
		return nil, err
	}
	s := &Simulation{Config: cfg, Pos: pos, Vel: vel}
	s.alloc()
	return s, nil
}

func (s *Simulation) alloc() {
	s.rho = fft.NewGrid3(s.Config.Ng)
	n3 := s.Config.Ng * s.Config.Ng * s.Config.Ng
	for j := range s.gridForce {
		s.gridForce[j] = make([]float64, n3)
	}
}

// NumParticles returns the particle count.
func (s *Simulation) NumParticles() int { return len(s.Pos) }

// DepositCIC builds the density contrast grid from the particle positions:
// rho[cell] = count[cell]/meanCount - 1, where each particle's unit mass is
// distributed over the 8 nearest cells with trilinear (CIC) weights.
func (s *Simulation) DepositCIC() *fft.Grid3 {
	n := s.Config.Ng
	for i := range s.rho.Data {
		s.rho.Data[i] = 0
	}
	cosmo.DepositCIC(s.rho, s.Pos, s.Config.BoxSize)
	mean := float64(len(s.Pos)) / float64(n*n*n)
	if mean > 0 {
		inv := complex(1/mean, 0)
		for i := range s.rho.Data {
			s.rho.Data[i] = s.rho.Data[i]*inv - 1
		}
	}
	return s.rho
}

// solveForces computes the mesh force field -grad(phi) from the current
// particle distribution, storing the three components in s.gridForce.
func (s *Simulation) solveForces() {
	n := s.Config.Ng
	h := s.Config.BoxSize / float64(n)
	s.DepositCIC()
	// Scale density contrast by G: del^2 phi = G * delta.
	g := complex(s.Config.G, 0)
	for i := range s.rho.Data {
		s.rho.Data[i] *= g
	}
	fft.SolvePoisson(s.rho, s.Config.BoxSize)
	// Central differences with periodic wrap: F = -grad(phi).
	inv2h := 1 / (2 * h)
	for z := 0; z < n; z++ {
		zp, zm := (z+1)%n, (z-1+n)%n
		for y := 0; y < n; y++ {
			yp, ym := (y+1)%n, (y-1+n)%n
			for x := 0; x < n; x++ {
				xp, xm := (x+1)%n, (x-1+n)%n
				idx := s.rho.Index(x, y, z)
				s.gridForce[0][idx] = -(real(s.rho.At(xp, y, z)) - real(s.rho.At(xm, y, z))) * inv2h
				s.gridForce[1][idx] = -(real(s.rho.At(x, yp, z)) - real(s.rho.At(x, ym, z))) * inv2h
				s.gridForce[2][idx] = -(real(s.rho.At(x, y, zp)) - real(s.rho.At(x, y, zm))) * inv2h
			}
		}
	}
}

// ForceAt interpolates the mesh force at position p with CIC weights.
// solveForces must have been called for the current particle state; Step
// does this internally.
func (s *Simulation) forceAt(p geom.Vec3) geom.Vec3 {
	n := s.Config.Ng
	h := s.Config.BoxSize / float64(n)
	xi0, xi1, wx0, wx1 := cosmo.CICWeights(p.X, h, n)
	yi0, yi1, wy0, wy1 := cosmo.CICWeights(p.Y, h, n)
	zi0, zi1, wz0, wz1 := cosmo.CICWeights(p.Z, h, n)
	var f geom.Vec3
	for _, zc := range [2]struct {
		i int
		w float64
	}{{zi0, wz0}, {zi1, wz1}} {
		for _, yc := range [2]struct {
			i int
			w float64
		}{{yi0, wy0}, {yi1, wy1}} {
			base := (zc.i*n + yc.i) * n
			for _, xc := range [2]struct {
				i int
				w float64
			}{{xi0, wx0}, {xi1, wx1}} {
				w := zc.w * yc.w * xc.w
				idx := base + xc.i
				f.X += w * s.gridForce[0][idx]
				f.Y += w * s.gridForce[1][idx]
				f.Z += w * s.gridForce[2][idx]
			}
		}
	}
	return f
}

// StepOnce advances the simulation by one kick-drift-kick leapfrog step.
func (s *Simulation) StepOnce() {
	dt := s.Config.Dt
	half := dt / 2

	s.solveForces()
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(s.forceAt(s.Pos[i]).Scale(half))
	}
	for i := range s.Pos {
		s.Pos[i] = cosmo.Wrap(s.Pos[i].Add(s.Vel[i].Scale(dt)), s.Config.BoxSize)
	}
	s.solveForces()
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(s.forceAt(s.Pos[i]).Scale(half))
	}
	s.Step++
}

// Run advances the simulation by n steps, invoking hook after each one.
// Hooks receive the simulation in a read-consistent state (between steps).
// A driver that may stop early, as the cosmology-tools pipeline does at a
// failing tool, calls StepOnce itself.
func (s *Simulation) Run(n int, hook func(*Simulation)) {
	for i := 0; i < n; i++ {
		s.StepOnce()
		if hook != nil {
			hook(s)
		}
	}
}

// Momentum returns the total particle momentum (equal masses of 1).
func (s *Simulation) Momentum() geom.Vec3 {
	var m geom.Vec3
	for _, v := range s.Vel {
		m = m.Add(v)
	}
	return m
}

// KineticEnergy returns the total kinetic energy (unit masses).
func (s *Simulation) KineticEnergy() float64 {
	var e float64
	for _, v := range s.Vel {
		e += v.Norm2() / 2
	}
	return e
}

// ClusteringAmplitude returns the RMS of the CIC density contrast, a cheap
// proxy for how evolved the structure is (sigma of delta grows with time in
// the linear regime and beyond).
func (s *Simulation) ClusteringAmplitude() float64 {
	g := s.DepositCIC()
	var sum2 float64
	for _, v := range g.Data {
		sum2 += real(v) * real(v)
	}
	return math.Sqrt(sum2 / float64(len(g.Data)))
}

// PotentialEnergy returns the total PM potential energy
// U = (1/2) sum_i phi(x_i) (unit masses), with phi the mesh potential of
// the current particle distribution interpolated to the particles with CIC
// weights. Together with KineticEnergy it gives the energy diagnostics a
// production N-body code reports each step.
func (s *Simulation) PotentialEnergy() float64 {
	n := s.Config.Ng
	h := s.Config.BoxSize / float64(n)
	s.DepositCIC()
	g := complex(s.Config.G, 0)
	for i := range s.rho.Data {
		s.rho.Data[i] *= g
	}
	fft.SolvePoisson(s.rho, s.Config.BoxSize)
	var u float64
	for _, p := range s.Pos {
		xi0, xi1, wx0, wx1 := cosmo.CICWeights(p.X, h, n)
		yi0, yi1, wy0, wy1 := cosmo.CICWeights(p.Y, h, n)
		zi0, zi1, wz0, wz1 := cosmo.CICWeights(p.Z, h, n)
		for _, zc := range [2]struct {
			i int
			w float64
		}{{zi0, wz0}, {zi1, wz1}} {
			for _, yc := range [2]struct {
				i int
				w float64
			}{{yi0, wy0}, {yi1, wy1}} {
				base := (zc.i*n + yc.i) * n
				w := zc.w * yc.w
				u += w * wx0 * real(s.rho.Data[base+xi0])
				u += w * wx1 * real(s.rho.Data[base+xi1])
			}
		}
	}
	return u / 2
}
