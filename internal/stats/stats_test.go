package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMomentsConstantSample(t *testing.T) {
	m := ComputeMoments([]float64{2, 2, 2, 2})
	if m.N != 4 || m.Mean != 2 || m.Variance != 0 {
		t.Errorf("constant sample: %+v", m)
	}
	if m.Skewness != 0 || m.Kurtosis != 0 {
		t.Errorf("degenerate skew/kurt should be 0: %+v", m)
	}
	if m.Min != 2 || m.Max != 2 {
		t.Errorf("min/max: %+v", m)
	}
}

func TestMomentsEmpty(t *testing.T) {
	m := ComputeMoments(nil)
	if m.N != 0 {
		t.Errorf("empty sample: %+v", m)
	}
}

func TestMomentsKnownSample(t *testing.T) {
	// Symmetric two-point sample: mean 0, var 1, skew 0, kurtosis 1.
	m := ComputeMoments([]float64{-1, 1})
	if m.Mean != 0 || m.Variance != 1 || m.Skewness != 0 || m.Kurtosis != 1 {
		t.Errorf("two-point sample: %+v", m)
	}
}

func TestMomentsGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 5
	}
	m := ComputeMoments(xs)
	if math.Abs(m.Mean-5) > 0.05 {
		t.Errorf("Gaussian mean = %v", m.Mean)
	}
	if sd := math.Sqrt(m.Variance); math.Abs(sd-3) > 0.05 {
		t.Errorf("Gaussian sd = %v", sd)
	}
	if math.Abs(m.Skewness) > 0.05 {
		t.Errorf("Gaussian skewness = %v", m.Skewness)
	}
	if math.Abs(m.Kurtosis-3) > 0.1 {
		t.Errorf("Gaussian kurtosis = %v (convention: normal = 3)", m.Kurtosis)
	}
}

func TestMomentsExponentialSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	m := ComputeMoments(xs)
	if math.Abs(m.Skewness-2) > 0.15 {
		t.Errorf("exponential skewness = %v, want ~2", m.Skewness)
	}
	if math.Abs(m.Kurtosis-9) > 1.0 {
		t.Errorf("exponential kurtosis = %v, want ~9", m.Kurtosis)
	}
}

func TestMomentsShiftInvariance(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		xs := []float64{a, b, c, d}
		for _, x := range xs {
			if math.Abs(x) > 1e6 || math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		m1 := ComputeMoments(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 100
		}
		m2 := ComputeMoments(shifted)
		tol := 1e-6 * math.Max(1, m1.Variance)
		return math.Abs(m1.Variance-m2.Variance) < tol &&
			math.Abs(m2.Mean-m1.Mean-100) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddAll([]float64{0, 0.5, 1, 9.999, 10, -0.1, 5})
	if h.Counts[0] != 2 { // 0 and 0.5
		t.Errorf("bin 0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Over != 1 || h.Under != 1 {
		t.Errorf("over=%d under=%d", h.Over, h.Under)
	}
	if h.Total != 7 {
		t.Errorf("total=%d", h.Total)
	}
}

func TestHistogramEdgeRoundoff(t *testing.T) {
	h := NewHistogram(0, 0.3, 3)
	// 0.3 - tiny epsilon could round into bin 3; the guard must clamp it.
	h.Add(math.Nextafter(0.3, 0))
	if h.Counts[2] != 1 {
		t.Errorf("top-edge value not clamped into last bin: %v", h.Counts)
	}
}

func TestHistogramBinCentersAndWidth(t *testing.T) {
	h := NewHistogram(0.02, 2, 99)
	if math.Abs(h.BinWidth()-0.02) > 1e-12 {
		t.Errorf("BinWidth = %v", h.BinWidth())
	}
	if math.Abs(h.BinCenter(0)-0.03) > 1e-12 {
		t.Errorf("BinCenter(0) = %v", h.BinCenter(0))
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHistogramConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(-1, 1, 17)
		n := 500
		for i := 0; i < n; i++ {
			h.Add(rng.NormFloat64())
		}
		sum := h.Under + h.Over
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n && h.Total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRender(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.AddAll([]float64{0.5, 0.5, 1.5})
	out := h.Render(10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("Render lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "##########") {
		t.Errorf("max bin not full width: %q", lines[0])
	}
	if !strings.Contains(lines[1], "#####") {
		t.Errorf("half bin wrong: %q", lines[1])
	}
	empty := NewHistogram(0, 1, 1)
	if !strings.Contains(empty.Render(5), "| 0") {
		t.Error("empty histogram render failed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 3); got != 0.5 {
		t.Errorf("FractionBelow = %v", got)
	}
	if got := FractionBelow(nil, 3); got != 0 {
		t.Errorf("empty FractionBelow = %v", got)
	}
}
