package density

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dtfe"
	"repro/internal/geom"
)

func jitteredLattice(seed int64, n int, L float64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	h := L / float64(n)
	pts := make([]geom.Vec3, 0, n*n*n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pts = append(pts, geom.V(
					(float64(x)+0.5+0.3*(rng.Float64()-0.5))*h,
					(float64(y)+0.5+0.3*(rng.Float64()-0.5))*h,
					(float64(z)+0.5+0.3*(rng.Float64()-0.5))*h))
			}
		}
	}
	return pts
}

func periodicConfig(gridN int, L float64) Config {
	return Config{
		GridN:    gridN,
		Box:      geom.NewBox(geom.Vec3{}, geom.V(L, L, L)),
		Periodic: true,
		Pad:      L / 4,
	}
}

func TestConfigValidate(t *testing.T) {
	box := geom.NewBox(geom.Vec3{}, geom.V(4, 4, 4))
	bad := []Config{
		{GridN: 1, Box: box},
		{GridN: 8},
		{GridN: 12, Box: box, Spectrum: true},
		{GridN: 8, Box: geom.NewBox(geom.Vec3{}, geom.V(4, 4, 2)), Spectrum: true},
		{GridN: 8, Box: box, Percentiles: []float64{-5}},
		{GridN: 8, Box: box, Periodic: true, Pad: math.NaN()},
		{GridN: 8, Box: box, Periodic: true, Pad: math.Inf(1)},
		{GridN: 8, Box: box, Pad: math.Inf(-1)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{GridN: 8, Box: box, Spectrum: true}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestUniformFieldStatsAndMassConservation(t *testing.T) {
	const L = 6.0
	pts := jitteredLattice(5, 6, L) // 216 tracers, unit mass
	res, err := Compute(periodicConfig(8, L), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.Outside != 0 {
		t.Errorf("%d samples outside hull despite periodic padding", res.Sample.Outside)
	}
	if res.Sample.Degenerate != 0 {
		t.Errorf("%d degenerate samples", res.Sample.Degenerate)
	}
	// Near-uniform tracers: mean density ~ count/volume and few voids.
	wantMean := float64(len(pts)) / (L * L * L)
	if math.Abs(res.Stats.Mean-wantMean) > 0.15*wantMean {
		t.Errorf("mean %v, want ~%v", res.Stats.Mean, wantMean)
	}
	if res.Stats.VoidFrac > 0.05 {
		t.Errorf("void fraction %v on a uniform field", res.Stats.VoidFrac)
	}
	// Mass conservation: the grid integral over the periodic box must
	// recover the tracer mass to sampling tolerance.
	if math.Abs(res.Stats.GridMass-res.Stats.TracerMass) > 0.1*res.Stats.TracerMass {
		t.Errorf("grid mass %v vs tracer mass %v", res.Stats.GridMass, res.Stats.TracerMass)
	}
	if res.Stats.TracerMass != float64(len(pts)) {
		t.Errorf("tracer mass %v, want %d", res.Stats.TracerMass, len(pts))
	}
	if res.Tracers != len(pts) || res.Padded <= len(pts) {
		t.Errorf("tracers %d padded %d", res.Tracers, res.Padded)
	}
}

func TestWeightedMassConservation(t *testing.T) {
	const L = 5.0
	pts := jitteredLattice(6, 5, L)
	rng := rand.New(rand.NewSource(7))
	masses := make([]float64, len(pts))
	var want float64
	for i := range masses {
		masses[i] = 0.5 + rng.Float64()
		want += masses[i]
	}
	res, err := Compute(periodicConfig(8, L), pts, masses)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TracerMass != want {
		t.Errorf("tracer mass %v, want %v", res.Stats.TracerMass, want)
	}
	if math.Abs(res.Stats.GridMass-want) > 0.1*want {
		t.Errorf("grid mass %v vs tracer mass %v", res.Stats.GridMass, want)
	}
}

// Warm pipelines must reproduce cold one-shot runs byte for byte, across
// several snapshots reusing the same scratch and buffers.
func TestWarmReuseByteIdentical(t *testing.T) {
	const L = 5.0
	cfg := periodicConfig(8, L)
	cfg.Spectrum = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		pts := jitteredLattice(int64(20+step), 5, L)
		warm, err := p.Step(pts, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		warmBytes := EncodeGrid(warm.Grid)
		cold, err := Compute(cfg, pts, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !bytes.Equal(warmBytes, EncodeGrid(cold.Grid)) {
			t.Fatalf("step %d: warm grid differs from cold run", step)
		}
		if len(warm.Spectrum) != len(cold.Spectrum) {
			t.Fatalf("step %d: spectrum shape differs", step)
		}
		for i := range warm.Spectrum {
			if warm.Spectrum[i] != cold.Spectrum[i] {
				t.Fatalf("step %d bin %d: warm %+v cold %+v", step, i, warm.Spectrum[i], cold.Spectrum[i])
			}
		}
	}
}

// Grid bytes must be independent of how interpolation is partitioned into
// slabs and worker counts — the property the session relies on to spread
// slabs over ranks.
func TestSlabPartitioningInvariance(t *testing.T) {
	const L = 5.0
	cfg := periodicConfig(8, L)
	pts := jitteredLattice(9, 5, L)

	ref, err := Compute(cfg, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := EncodeGrid(ref.Grid)

	for _, slabs := range []int{2, 3, 8} {
		for _, workers := range []int{1, 4} {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Triangulate(pts, nil); err != nil {
				t.Fatal(err)
			}
			// Interpolate in contiguous slabs, mimicking the session's
			// rank split.
			var sample dtfe.SampleStats
			n := cfg.GridN
			for s := 0; s < slabs; s++ {
				sample.Add(p.InterpolateSlab(s*n/slabs, (s+1)*n/slabs, workers))
			}
			res := p.Finalize(sample)
			if !bytes.Equal(EncodeGrid(res.Grid), refBytes) {
				t.Fatalf("slabs=%d workers=%d: grid bytes differ", slabs, workers)
			}
			if sample != ref.Sample {
				t.Fatalf("slabs=%d workers=%d: sample stats %+v != %+v", slabs, workers, sample, ref.Sample)
			}
		}
	}
}

func TestSpectrumDetectsClustering(t *testing.T) {
	const L = 8.0
	cfg := periodicConfig(16, L)
	cfg.Spectrum = true

	uniform, err := Compute(cfg, jitteredLattice(3, 8, L), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Clustered tracers: collapse half the lattice into a ball.
	pts := jitteredLattice(3, 8, L)
	c := geom.V(L/2, L/2, L/2)
	for i := 0; i < len(pts)/2; i++ {
		pts[i] = c.Add(pts[i].Sub(c).Scale(0.25))
	}
	clustered, err := Compute(cfg, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniform.Spectrum) == 0 || len(clustered.Spectrum) == 0 {
		t.Fatal("missing spectrum")
	}
	for _, b := range clustered.Spectrum {
		if b.Power < 0 || math.IsNaN(b.Power) {
			t.Fatalf("invalid power %v at k=%v", b.Power, b.K)
		}
	}
	if clustered.Spectrum[0].Power <= uniform.Spectrum[0].Power {
		t.Errorf("clustered large-scale power %v <= uniform %v",
			clustered.Spectrum[0].Power, uniform.Spectrum[0].Power)
	}
	if clustered.Stats.VoidFrac <= uniform.Stats.VoidFrac {
		t.Errorf("clustered void fraction %v <= uniform %v",
			clustered.Stats.VoidFrac, uniform.Stats.VoidFrac)
	}
}

func TestPercentilesMonotone(t *testing.T) {
	const L = 5.0
	res, err := Compute(periodicConfig(8, L), jitteredLattice(13, 5, L), nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Stats.Percentiles
	if len(ps) != 5 {
		t.Fatalf("default percentiles: got %d", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].Value < ps[i-1].Value {
			t.Fatalf("percentiles not monotone: %+v", ps)
		}
	}
	if res.Stats.Min > ps[0].Value || res.Stats.Max < ps[len(ps)-1].Value {
		t.Fatalf("min/max inconsistent with percentiles: %+v", res.Stats)
	}
}

func TestEncodeDecodeGridRoundtrip(t *testing.T) {
	grid := []float64{0, 1.5, -2.25, math.Pi, 1e300}
	dec, err := DecodeGrid(EncodeGrid(grid))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(grid) {
		t.Fatal("length mismatch")
	}
	for i := range grid {
		if dec[i] != grid[i] {
			t.Fatalf("index %d: %v != %v", i, dec[i], grid[i])
		}
	}
	if _, err := DecodeGrid(make([]byte, 13)); err == nil {
		t.Error("odd-length encoding accepted")
	}
}

func TestResultCloneDetaches(t *testing.T) {
	const L = 5.0
	p, err := New(periodicConfig(8, L))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Step(jitteredLattice(31, 5, L), nil)
	if err != nil {
		t.Fatal(err)
	}
	own := res.Clone()
	first := EncodeGrid(own.Grid)
	if _, err := p.Step(jitteredLattice(32, 5, L), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, EncodeGrid(own.Grid)) {
		t.Fatal("Clone did not detach the grid from the pipeline buffer")
	}
}

// BenchmarkTriangulate times Pipeline.Triangulate on a jittered n^3 box
// (unit spacing, pad 4): cold is a fresh Pipeline per op — what every
// tessd density job and every session's first StepDensity pays — and warm
// reuses one. EXPERIMENTS.md's cold/warm table is this at -benchtime 1x.
func BenchmarkTriangulate(b *testing.B) {
	for _, n := range []int{16, 24, 32} {
		pts := jitteredLattice(int64(n), n, float64(n))
		cfg := periodicConfig(8, float64(n))
		cfg.Pad = 4
		b.Run(fmt.Sprintf("cold/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Triangulate(pts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("warm/%d", n), func(b *testing.B) {
			p, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Triangulate(pts, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Triangulate(pts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
