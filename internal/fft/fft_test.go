package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNewPlanPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPlan(12)
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k*j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 8, 128, 512} {
		p := NewPlan(n)
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		p.Forward(x)
		p.Inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
				t.Fatalf("n=%d round trip diverged at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 256
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeE += real(x[i] * cmplx.Conj(x[i]))
	}
	NewPlan(n).Forward(x)
	var freqE float64
	for i := range x {
		freqE += real(x[i] * cmplx.Conj(x[i]))
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-8*timeE {
		t.Errorf("Parseval violated: time %v, freq/N %v", timeE, freqE/float64(n))
	}
}

func TestImpulseIsFlat(t *testing.T) {
	n := 32
	x := make([]complex128, n)
	x[0] = 1
	NewPlan(n).Forward(x)
	for i := range x {
		if cmplx.Abs(x[i]-1) > 1e-12 {
			t.Fatalf("impulse spectrum not flat at %d: %v", i, x[i])
		}
	}
}

func TestSingleModeDetection(t *testing.T) {
	n := 64
	k := 5
	x := make([]complex128, n)
	for j := range x {
		x[j] = cmplx.Exp(complex(0, 2*math.Pi*float64(k*j)/float64(n)))
	}
	NewPlan(n).Forward(x)
	for i := range x {
		want := 0.0
		if i == k {
			want = float64(n)
		}
		if cmplx.Abs(x[i]-complex(want, 0)) > 1e-9 {
			t.Fatalf("mode leakage at bin %d: %v", i, x[i])
		}
	}
}

func TestFreqIndex(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{0, 8, 0}, {1, 8, 1}, {3, 8, 3}, {4, 8, -4}, {7, 8, -1},
	}
	for _, c := range cases {
		if got := FreqIndex(c.i, c.n); got != c.want {
			t.Errorf("FreqIndex(%d, %d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func TestGrid3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := NewGrid3(8)
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	orig := append([]complex128(nil), g.Data...)
	Forward3(g)
	Inverse3(g)
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-10 {
			t.Fatalf("3D round trip diverged at %d", i)
		}
	}
}

func TestGrid3SingleMode(t *testing.T) {
	n := 8
	g := NewGrid3(n)
	kx, ky, kz := 2, 3, 1
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				ph := 2 * math.Pi * float64(kx*x+ky*y+kz*z) / float64(n)
				g.Data[g.Index(x, y, z)] = cmplx.Exp(complex(0, ph))
			}
		}
	}
	Forward3(g)
	n3 := float64(n * n * n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				want := 0.0
				if x == kx && y == ky && z == kz {
					want = n3
				}
				if cmplx.Abs(g.At(x, y, z)-complex(want, 0)) > 1e-7 {
					t.Fatalf("3D mode leakage at (%d,%d,%d): %v", x, y, z, g.At(x, y, z))
				}
			}
		}
	}
}

func TestSolvePoissonSingleMode(t *testing.T) {
	// For rho = cos(k.x), the solution of del^2 phi = rho is
	// phi = -cos(k.x)/|k|^2.
	n := 16
	L := 2 * math.Pi // so k0 = 1
	g := NewGrid3(n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				xx := L * float64(x) / float64(n)
				g.Data[g.Index(x, y, z)] = complex(math.Cos(2*xx), 0)
			}
		}
	}
	SolvePoisson(g, L)
	for x := 0; x < n; x++ {
		xx := L * float64(x) / float64(n)
		want := -math.Cos(2*xx) / 4
		got := real(g.At(x, 3, 5))
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("phi(%d) = %v, want %v", x, got, want)
		}
		if math.Abs(imag(g.At(x, 3, 5))) > 1e-10 {
			t.Fatalf("phi has imaginary part %v", imag(g.At(x, 3, 5)))
		}
	}
}

func TestSolvePoissonZeroMean(t *testing.T) {
	// A constant density has no fluctuation: phi must be identically zero.
	g := NewGrid3(8)
	for i := range g.Data {
		g.Data[i] = 7
	}
	SolvePoisson(g, 1)
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]) > 1e-10 {
			t.Fatalf("constant rho produced nonzero phi: %v", g.Data[i])
		}
	}
}

func TestGridIndexing(t *testing.T) {
	g := NewGrid3(4)
	g.Data[(3*4+2)*4+1] = 42
	if g.At(1, 2, 3) != 42 {
		t.Error("At does not read the x-fastest slot")
	}
	if g.Index(1, 2, 3) != (3*4+2)*4+1 {
		t.Errorf("Index = %d", g.Index(1, 2, 3))
	}
}

func BenchmarkFFT1D_1024(b *testing.B) {
	p := NewPlan(1024)
	x := make([]complex128, 1024)
	rng := rand.New(rand.NewSource(16))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkPoisson3D_32(b *testing.B) {
	g := NewGrid3(32)
	rng := rand.New(rand.NewSource(17))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolvePoisson(g, 32)
	}
}
