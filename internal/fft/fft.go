// Package fft implements the fast Fourier transforms needed by the
// particle-mesh gravity solver: an iterative radix-2 complex transform and
// 3D transforms over cubic grids. Grid sizes must be powers of two, which is
// the convention for PM codes (HACC's grids are powers of two as well).
//
// The inverse transform is normalized by 1/N so that Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Plan caches twiddle factors and the bit-reversal permutation for 1D
// transforms of a fixed power-of-two length. Plans are safe for concurrent
// use by multiple goroutines once created.
type Plan struct {
	n       int
	rev     []int
	twiddle []complex128 // e^{-2πik/n} for k in [0, n/2)
}

// NewPlan returns a transform plan for length n. It panics if n is not a
// positive power of two.
func NewPlan(n int) *Plan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	p := &Plan{n: n}
	logn := bits.TrailingZeros(uint(n))
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - logn))
	}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = cmplx.Exp(complex(0, angle))
	}
	return p
}

// Forward computes the in-place forward DFT of x. len(x) must equal the plan
// length.
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place inverse DFT of x, normalized by 1/N.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length mismatch: plan %d, input %d", p.n, len(x)))
	}
	// Bit-reversal permutation.
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative Cooley-Tukey butterflies.
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				w := p.twiddle[k*step]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// Grid3 is a cubic complex-valued grid of side N, stored row-major as
// Data[(z*N+y)*N+x].
type Grid3 struct {
	N    int
	Data []complex128
}

// NewGrid3 allocates a zeroed N^3 grid. It panics if n is not a positive
// power of two.
func NewGrid3(n int) *Grid3 {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: grid side %d is not a power of two", n))
	}
	return &Grid3{N: n, Data: make([]complex128, n*n*n)}
}

// Index returns the linear index of (x, y, z).
func (g *Grid3) Index(x, y, z int) int { return (z*g.N+y)*g.N + x }

// At returns the value at (x, y, z).
func (g *Grid3) At(x, y, z int) complex128 { return g.Data[g.Index(x, y, z)] }

// Forward3 computes the in-place 3D forward DFT of g by transforming along
// x, then y, then z.
func Forward3(g *Grid3) { transform3(g, false) }

// Inverse3 computes the in-place 3D inverse DFT of g (normalized so that
// Inverse3(Forward3(g)) == g).
func Inverse3(g *Grid3) { transform3(g, true) }

func transform3(g *Grid3, inverse bool) {
	n := g.N
	plan := NewPlan(n)
	buf := make([]complex128, n)
	// X lines are contiguous.
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			row := g.Data[g.Index(0, y, z) : g.Index(0, y, z)+n]
			if inverse {
				plan.Inverse(row)
			} else {
				plan.Forward(row)
			}
		}
	}
	// Y lines.
	for z := 0; z < n; z++ {
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				buf[y] = g.Data[g.Index(x, y, z)]
			}
			if inverse {
				plan.Inverse(buf)
			} else {
				plan.Forward(buf)
			}
			for y := 0; y < n; y++ {
				g.Data[g.Index(x, y, z)] = buf[y]
			}
		}
	}
	// Z lines.
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			for z := 0; z < n; z++ {
				buf[z] = g.Data[g.Index(x, y, z)]
			}
			if inverse {
				plan.Inverse(buf)
			} else {
				plan.Forward(buf)
			}
			for z := 0; z < n; z++ {
				g.Data[g.Index(x, y, z)] = buf[z]
			}
		}
	}
}

// FreqIndex maps grid index i in [0, n) to its signed frequency in
// [-n/2, n/2): 0, 1, ..., n/2-1, -n/2, ..., -1.
func FreqIndex(i, n int) int {
	if i < n/2 {
		return i
	}
	return i - n
}

// SolvePoisson solves del^2 phi = rho on a periodic cube of physical side L
// in place: rho is replaced by phi. The k=0 (mean) mode is set to zero,
// which corresponds to solving for the fluctuation about the mean density —
// the standard convention in cosmological PM codes.
func SolvePoisson(rho *Grid3, boxSize float64) {
	n := rho.N
	Forward3(rho)
	k0 := 2 * math.Pi / boxSize
	for z := 0; z < n; z++ {
		kz := float64(FreqIndex(z, n)) * k0
		for y := 0; y < n; y++ {
			ky := float64(FreqIndex(y, n)) * k0
			for x := 0; x < n; x++ {
				kx := float64(FreqIndex(x, n)) * k0
				k2 := kx*kx + ky*ky + kz*kz
				idx := rho.Index(x, y, z)
				if k2 == 0 {
					rho.Data[idx] = 0
					continue
				}
				rho.Data[idx] *= complex(-1/k2, 0)
			}
		}
	}
	Inverse3(rho)
}
