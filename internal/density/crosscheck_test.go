package density

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/multistream"
	"repro/internal/nbody"
)

// The DTFE field and the multistream classification are independent
// estimators of the same dynamics; an evolved box must show single-stream
// (void) regions at low density percentiles.
func TestCrossCheckEvolvedBox(t *testing.T) {
	const ng = 8
	sim, err := nbody.New(nbody.DefaultConfig(ng))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		sim.StepOnce()
	}
	L := sim.Config.BoxSize

	cfg := periodicConfig(16, L)
	res, err := Compute(cfg, sim.Pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := multistream.Compute(sim.Pos, ng, L, 2*ng)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Summarize().ThreePlus == 0 {
		t.Skip("box not evolved enough to shell-cross; cross-check vacuous")
	}

	cc, err := CrossCheck(res, ms)
	if err != nil {
		t.Fatal(err)
	}
	if cc.SingleCells == 0 || cc.MultiCells == 0 {
		t.Fatalf("degenerate classification: %+v", cc)
	}
	if !cc.Consistent() {
		t.Fatalf("estimators disagree: %+v (single-stream regions must read low density)", cc)
	}
}

func TestCrossCheckBoxMismatch(t *testing.T) {
	res := &Result{GridN: 4, Box: geom.NewBox(geom.V(1, 0, 0), geom.V(5, 4, 4)),
		Grid: make([]float64, 64)}
	ms := &multistream.Field{M: 4, BoxSize: 4, Streams: make([]int32, 64)}
	if _, err := CrossCheck(res, ms); err == nil {
		t.Fatal("box mismatch accepted")
	}
}

// CrossCheck compares a density Result against an independent multistream
// classification of the same snapshot. The two estimators share no code:
// DTFE reads density off the Delaunay tessellation of the evolved
// positions, while the multistream field counts phase-space sheet foldings
// on the initial lattice (the Kaehler phase-space-element construction).
// Physically, single-stream regions are voids that have never undergone
// shell crossing, so they must sit low in the DTFE density distribution —
// the accuracy cross-check EXPERIMENTS.md documents.
type CrossCheckResult struct {
	// SingleCells / MultiCells are the density sample cells classified
	// single-stream (void) and multi-stream (collapsed) respectively.
	SingleCells int `json:"single_cells"`
	MultiCells  int `json:"multi_cells"`
	// Medians of the DTFE density over each class.
	SingleMedian float64 `json:"single_median"`
	MultiMedian  float64 `json:"multi_median"`
	// SingleBelowMean is the fraction of single-stream cells whose DTFE
	// density is below the grid mean; a consistent pair of estimators
	// drives this toward 1.
	SingleBelowMean float64 `json:"single_below_mean"`
}

// Consistent reports whether the two estimators agree in the aggregate:
// single-stream (void) cells must read less dense than multi-stream cells
// on median, and most single-stream cells must be below the mean.
func (c *CrossCheckResult) Consistent() bool {
	if c.SingleCells == 0 || c.MultiCells == 0 {
		return false
	}
	return c.SingleMedian < c.MultiMedian && c.SingleBelowMean > 0.5
}

// CrossCheck evaluates the multistream field at every density sample cell
// and splits the DTFE grid by stream count. The Result's box must be the
// multistream field's periodic box.
func CrossCheck(res *Result, ms *multistream.Field) (*CrossCheckResult, error) {
	size := res.Box.Size()
	if res.Box.Min.X != 0 || res.Box.Min.Y != 0 || res.Box.Min.Z != 0 || size.X != ms.BoxSize {
		return nil, fmt.Errorf("density: cross-check box mismatch: grid over %v, multistream over [0,%v]^3",
			res.Box, ms.BoxSize)
	}
	n := res.GridN
	var single, multi []float64
	for k := 0; k < n; k++ {
		z := (float64(k) + 0.5) * size.Z / float64(n)
		for j := 0; j < n; j++ {
			y := (float64(j) + 0.5) * size.Y / float64(n)
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) * size.X / float64(n)
				d := res.Grid[(k*n+j)*n+i]
				streams := ms.Streams[(msCell(z, ms)*ms.M+msCell(y, ms))*ms.M+msCell(x, ms)]
				if streams <= 1 {
					single = append(single, d)
				} else {
					multi = append(multi, d)
				}
			}
		}
	}
	out := &CrossCheckResult{SingleCells: len(single), MultiCells: len(multi)}
	out.SingleMedian = median(single)
	out.MultiMedian = median(multi)
	if len(single) > 0 {
		below := 0
		for _, d := range single {
			if d < res.Stats.Mean {
				below++
			}
		}
		out.SingleBelowMean = float64(below) / float64(len(single))
	}
	return out, nil
}

// msCell maps a box coordinate to the nearest multistream sample index.
func msCell(v float64, ms *multistream.Field) int {
	h := ms.BoxSize / float64(ms.M)
	c := int(v / h)
	return min(max(c, 0), ms.M-1)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}
