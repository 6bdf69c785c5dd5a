package cosmo

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/geom"
)

// PkBin is one shell of a measured power spectrum.
type PkBin struct {
	// K is the mean wavenumber of the modes in the shell.
	K float64
	// P is the shell-averaged power <|delta_k|^2> * V / N_modes... in the
	// standard volume normalization P(k) = V <|delta_k|^2> with delta_k the
	// discrete Fourier transform of the density contrast divided by the
	// number of grid cells.
	P float64
	// Modes is the number of Fourier modes averaged.
	Modes int
}

// PowerSpectrum measures the matter power spectrum of a particle
// distribution in a periodic box: CIC density assignment on an ng^3 grid,
// FFT, and shell-averaging of |delta_k|^2. This is the "traditional
// two-point statistic" the paper contrasts the tessellation analysis with
// (Sec. II-A), and a convergence diagnostic for the N-body substrate.
//
// The CIC assignment window is deconvolved (divided out) so that measured
// large-scale power is unbiased.
func PowerSpectrum(pos []geom.Vec3, ng int, boxSize float64, bins int) ([]PkBin, error) {
	if !fft.IsPow2(ng) {
		return nil, fmt.Errorf("cosmo: ng = %d is not a power of two", ng)
	}
	if boxSize <= 0 || bins <= 0 {
		return nil, fmt.Errorf("cosmo: invalid box %g or bins %d", boxSize, bins)
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("cosmo: no particles")
	}

	// CIC density contrast.
	grid := fft.NewGrid3(ng)
	h := boxSize / float64(ng)
	DepositCIC(grid, pos, boxSize)
	mean := float64(len(pos)) / float64(ng*ng*ng)
	for i := range grid.Data {
		grid.Data[i] = grid.Data[i]/complex(mean, 0) - 1
	}
	fft.Forward3(grid)

	// Shell average with CIC window deconvolution.
	k0 := 2 * math.Pi / boxSize
	kNyq := math.Pi * float64(ng) / boxSize
	sumP := make([]float64, bins)
	sumK := make([]float64, bins)
	count := make([]int, bins)
	n3 := float64(ng * ng * ng)
	for z := 0; z < ng; z++ {
		kz := float64(fft.FreqIndex(z, ng)) * k0
		for y := 0; y < ng; y++ {
			ky := float64(fft.FreqIndex(y, ng)) * k0
			for x := 0; x < ng; x++ {
				kx := float64(fft.FreqIndex(x, ng)) * k0
				k := math.Sqrt(kx*kx + ky*ky + kz*kz)
				if k == 0 || k >= kNyq {
					continue
				}
				d := grid.At(x, y, z)
				p := (real(d)*real(d) + imag(d)*imag(d)) / (n3 * n3)
				// CIC window: W(k) = prod_j sinc^2(k_j h / 2).
				w := cicWindow(kx, h) * cicWindow(ky, h) * cicWindow(kz, h)
				if w > 1e-12 {
					p /= w * w
				}
				bi := int(k / kNyq * float64(bins))
				if bi >= bins {
					bi = bins - 1
				}
				sumP[bi] += p
				sumK[bi] += k
				count[bi]++
			}
		}
	}
	vol := boxSize * boxSize * boxSize
	out := make([]PkBin, 0, bins)
	for i := 0; i < bins; i++ {
		if count[i] == 0 {
			continue
		}
		out = append(out, PkBin{
			K:     sumK[i] / float64(count[i]),
			P:     vol * sumP[i] / float64(count[i]),
			Modes: count[i],
		})
	}
	return out, nil
}

// CICWeights returns the two cells coordinate x falls between on a periodic
// grid of n cells with spacing h, and its linear weight on each, for
// cell-centered cloud-in-cell assignment (cell centers at (i + 0.5) * h).
func CICWeights(x, h float64, n int) (i0, i1 int, w0, w1 float64) {
	u := x/h - 0.5
	i := int(math.Floor(u))
	f := u - float64(i)
	i0 = ((i % n) + n) % n
	i1 = (i0 + 1) % n
	return i0, i1, 1 - f, f
}

// DepositCIC adds one unit of mass per position to grid, spread over the 8
// nearest cells of the periodic box of side boxSize with trilinear (CIC)
// weights. It is the one deposit the power spectrum and the N-body solver
// share; each normalizes the counts into a density contrast its own way.
func DepositCIC(grid *fft.Grid3, pos []geom.Vec3, boxSize float64) {
	n := grid.N
	h := boxSize / float64(n)
	for _, p := range pos {
		xi0, xi1, wx0, wx1 := CICWeights(p.X, h, n)
		yi0, yi1, wy0, wy1 := CICWeights(p.Y, h, n)
		zi0, zi1, wz0, wz1 := CICWeights(p.Z, h, n)
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
				grid.Data[base+xi0] += complex(w*wx0, 0)
				grid.Data[base+xi1] += complex(w*wx1, 0)
			}
		}
	}
}

// cicWindow is the squared sinc of one axis of the CIC assignment window.
func cicWindow(k, h float64) float64 {
	if k == 0 {
		return 1
	}
	s := math.Sin(k*h/2) / (k * h / 2)
	return s * s
}
