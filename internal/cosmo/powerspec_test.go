package cosmo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestPowerSpectrumValidation(t *testing.T) {
	pts := []geom.Vec3{{X: 1, Y: 1, Z: 1}}
	if _, err := PowerSpectrum(pts, 7, 8, 4); err == nil {
		t.Error("non-pow2 grid accepted")
	}
	if _, err := PowerSpectrum(pts, 8, 0, 4); err == nil {
		t.Error("zero box accepted")
	}
	if _, err := PowerSpectrum(nil, 8, 8, 4); err == nil {
		t.Error("empty particles accepted")
	}
}

func TestPowerSpectrumShotNoise(t *testing.T) {
	// Poisson particles: flat spectrum at the shot-noise level V/N.
	rng := rand.New(rand.NewSource(108))
	const L = 16.0
	n := 20000
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*L, rng.Float64()*L, rng.Float64()*L)
	}
	pk, err := PowerSpectrum(pts, 16, L, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := L * L * L / float64(n)
	for _, b := range pk {
		if b.Modes < 10 {
			continue
		}
		if b.P < want/3 || b.P > want*3 {
			t.Errorf("k=%.2f: P=%.3f, shot noise %.3f (off by >3x)", b.K, b.P, want)
		}
	}
}

func TestPowerSpectrumSingleMode(t *testing.T) {
	// Particles displaced sinusoidally at wavevector k1 produce, to linear
	// order, a density mode at k1: the measured power must peak in that
	// bin.
	const ng = 16
	const L = 16.0
	pts := LatticePositions(ng, L)
	k1 := 2 * 2 * math.Pi / L // second harmonic along x
	amp := 0.05
	for i := range pts {
		pts[i] = Wrap(pts[i].Add(geom.V(amp*math.Sin(k1*pts[i].X), 0, 0)), L)
	}
	pk, err := PowerSpectrum(pts, ng, L, 8)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i, b := range pk {
		if b.P > pk[best].P {
			best = i
		}
	}
	if math.Abs(pk[best].K-k1) > 0.25*k1 {
		t.Errorf("power peaks at k=%.3f, want ~%.3f", pk[best].K, k1)
	}
	// The peak dominates everything else by a wide margin.
	for i, b := range pk {
		if i != best && b.P > pk[best].P/5 {
			t.Errorf("bin k=%.3f has comparable power %.3g to peak %.3g", b.K, b.P, pk[best].P)
		}
	}
}

func TestPowerSpectrumGrowsUnderGravity(t *testing.T) {
	// Zel'dovich ICs have the shaped spectrum; the same particles with
	// doubled displacements have ~4x the power (P ~ amplitude^2).
	p := DefaultParams()
	const ng = 16
	const L = 16.0
	df, err := GenerateDisplacements(p, ng, L)
	if err != nil {
		t.Fatal(err)
	}
	lattice := LatticePositions(ng, L)
	mk := func(scale float64) []geom.Vec3 {
		out := make([]geom.Vec3, len(lattice))
		for i := range lattice {
			out[i] = Wrap(lattice[i].Add(df.Psi[i].Scale(scale)), L)
		}
		return out
	}
	pk1, err := PowerSpectrum(mk(1), ng, L, 5)
	if err != nil {
		t.Fatal(err)
	}
	pk2, err := PowerSpectrum(mk(2), ng, L, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the lowest-k bin (most linear).
	ratio := pk2[0].P / pk1[0].P
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("doubling displacements scaled low-k power by %.2f, want ~4", ratio)
	}
}

func TestPowerSpectrumBinsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	pts := make([]geom.Vec3, 1000)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8)
	}
	pk, err := PowerSpectrum(pts, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pk); i++ {
		if pk[i].K <= pk[i-1].K {
			t.Errorf("bins not ordered: %v", pk)
		}
	}
	totalModes := 0
	for _, b := range pk {
		totalModes += b.Modes
	}
	if totalModes == 0 {
		t.Error("no modes measured")
	}
}
