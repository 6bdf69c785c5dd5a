// Package stats provides the summary statistics used by the paper's
// evaluation: fixed-width histograms over cell volumes and density
// contrasts, and the sample moments (mean, variance, skewness, kurtosis)
// reported alongside Figures 8 and 11.
//
// Kurtosis follows the paper's convention of the raw standardized fourth
// moment m4/m2^2 (a normal distribution has kurtosis 3, not 0).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Moments summarizes a sample.
type Moments struct {
	N        int
	Mean     float64
	Variance float64 // population variance (divide by N)
	Skewness float64 // m3 / m2^(3/2)
	Kurtosis float64 // m4 / m2^2 (normal = 3)
	Min, Max float64
}

// ComputeMoments returns the sample moments of xs. An empty sample yields a
// zero Moments value with N == 0.
func ComputeMoments(xs []float64) Moments {
	m := Moments{N: len(xs)}
	if m.N == 0 {
		return m
	}
	m.Min, m.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		m.Min = math.Min(m.Min, x)
		m.Max = math.Max(m.Max, x)
	}
	n := float64(m.N)
	m.Mean = sum / n
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - m.Mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	m2 /= n
	m3 /= n
	m4 /= n
	m.Variance = m2
	if m2 > 0 {
		m.Skewness = m3 / math.Pow(m2, 1.5)
		m.Kurtosis = m4 / (m2 * m2)
	}
	return m
}

// Histogram is a fixed-width binning of a sample over [Lo, Hi). Values
// outside the range are counted in Under/Over and excluded from Counts.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
	Total  int // number of values added, including under/overflow
}

// NewHistogram returns an empty histogram with the given number of bins
// over [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram with %d bins", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: NewHistogram with empty range [%g, %g)", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add counts one value.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) { // guard against roundoff at the top edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddAll counts every value in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// MaxCount returns the largest bin count.
func (h *Histogram) MaxCount() int {
	m := 0
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Render draws an ASCII bar chart of the histogram, width columns wide,
// in the style used by the experiment harnesses to stand in for the paper's
// plotted figures.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	var sb strings.Builder
	max := h.MaxCount()
	if max == 0 {
		max = 1
	}
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/max)
		fmt.Fprintf(&sb, "%10.4f |%-*s| %d\n", h.BinCenter(i), width, bar, c)
	}
	return sb.String()
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// FractionBelow returns the fraction of xs that are strictly below x.
func FractionBelow(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v < x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
