package cosmo

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// XiBin is one radial bin of the two-point correlation function.
type XiBin struct {
	// R is the bin center separation.
	R float64
	// Xi is the estimated correlation: DD(r)/RR(r) - 1 with the analytic
	// random pair count for a periodic box.
	Xi float64
	// Pairs is the number of data pairs counted in the bin.
	Pairs int64
}

// ValidateCorrelation is CorrelationFunction's rule for its parameters: a
// positive box size and bin count, and rmax in (0, box/2] (NaN fails).
func ValidateCorrelation(boxSize, rmax float64, bins int) error {
	if !(boxSize > 0) || bins <= 0 {
		return fmt.Errorf("cosmo: invalid box %g or bins %d", boxSize, bins)
	}
	if !(rmax > 0 && rmax <= boxSize/2) {
		return fmt.Errorf("cosmo: rmax %g must be in (0, box/2]", rmax)
	}
	return nil
}

// CorrelationFunction measures the two-point correlation function xi(r) of
// a periodic particle distribution by direct pair counting against the
// analytic uniform expectation — the second of the paper's "traditional
// two-point statistics such as power spectrum and correlation" (Sec. II-A).
// Separations use the minimum image convention; rmax must not exceed half
// the box. Bins are linear in r.
func CorrelationFunction(pos []geom.Vec3, boxSize, rmax float64, bins int) ([]XiBin, error) {
	if len(pos) < 2 {
		return nil, fmt.Errorf("cosmo: need at least 2 particles")
	}
	if err := ValidateCorrelation(boxSize, rmax, bins); err != nil {
		return nil, err
	}

	// Grid buckets sized >= rmax: all pairs within rmax lie in adjacent
	// (periodic) cells.
	n := int(boxSize / rmax)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	cell := boxSize / float64(n)
	buckets := make([][]int32, n*n*n)
	bucketOf := func(p geom.Vec3) int {
		f := func(x float64) int {
			i := int(x / cell)
			if i >= n {
				i = n - 1
			}
			if i < 0 {
				i = 0
			}
			return i
		}
		return (f(p.Z)*n+f(p.Y))*n + f(p.X)
	}
	for i, p := range pos {
		b := bucketOf(p)
		buckets[b] = append(buckets[b], int32(i))
	}

	counts := make([]int64, bins)
	r2max := rmax * rmax
	countPair := func(a, b int32) {
		d2 := MinImage(pos[a], pos[b], boxSize).Norm2()
		if d2 > r2max || d2 == 0 {
			return
		}
		bi := int(math.Sqrt(d2) / rmax * float64(bins))
		if bi >= bins {
			bi = bins - 1
		}
		counts[bi]++
	}

	// Same-cell pairs plus half the neighbor offsets (to count each pair
	// once). With n <= 2 the offsets alias, so fall back to the direct
	// O(N^2) loop, which is fine at the sizes where n is that small.
	if n <= 2 {
		for i := 0; i < len(pos); i++ {
			for j := i + 1; j < len(pos); j++ {
				countPair(int32(i), int32(j))
			}
		}
	} else {
		half := [13][3]int{
			{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
			{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1},
			{0, 1, 1}, {0, 1, -1},
			{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
		}
		for bz := 0; bz < n; bz++ {
			for by := 0; by < n; by++ {
				for bx := 0; bx < n; bx++ {
					home := buckets[(bz*n+by)*n+bx]
					for i := 0; i < len(home); i++ {
						for j := i + 1; j < len(home); j++ {
							countPair(home[i], home[j])
						}
					}
					for _, d := range half {
						nx := ((bx+d[0])%n + n) % n
						ny := ((by+d[1])%n + n) % n
						nz := ((bz+d[2])%n + n) % n
						other := buckets[(nz*n+ny)*n+nx]
						for _, a := range home {
							for _, c := range other {
								countPair(a, c)
							}
						}
					}
				}
			}
		}
	}

	// Analytic RR for a uniform periodic box: expected pairs in [r1, r2)
	// is Npairs_total * shellVolume / boxVolume.
	np := float64(len(pos))
	totPairs := np * (np - 1) / 2
	vol := boxSize * boxSize * boxSize
	out := make([]XiBin, bins)
	dr := rmax / float64(bins)
	for i := 0; i < bins; i++ {
		r1 := float64(i) * dr
		r2 := r1 + dr
		shell := 4 * math.Pi / 3 * (r2*r2*r2 - r1*r1*r1)
		rr := totPairs * shell / vol
		out[i] = XiBin{R: r1 + dr/2, Pairs: counts[i]}
		if rr > 0 {
			out[i].Xi = float64(counts[i])/rr - 1
		}
	}
	return out, nil
}
