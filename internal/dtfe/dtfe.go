// Package dtfe implements the Delaunay Tessellation Field Estimator
// (Schaap & van de Weygaert), the density reconstruction that underlies the
// void finders discussed in the paper's background (ZOBOV and the Watershed
// Void Finder both start from a DTFE field). The estimate at each tracer
// point is rho_i = (D+1) m_i / V(star_i), where V(star_i) is the volume of
// the Delaunay tetrahedra incident to point i, and the field is linearly
// interpolated inside each tetrahedron.
package dtfe

import (
	"errors"
	"fmt"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// Field is a DTFE density field over a tetrahedralized point set.
type Field struct {
	Tri *delaunay.Triangulation
	// Density is the estimated density at each input point. Points merged
	// away as duplicates carry their representative vertex's density (the
	// representative's estimate in turn includes the duplicates' mass).
	Density []float64
}

// Estimator retains the accumulator buffers of the density estimate so
// warm in situ pipelines can re-estimate every snapshot without
// reallocating. The zero value is ready to use. The Field returned by
// Estimate aliases the Estimator's buffers and is valid until the next
// Estimate on the same Estimator.
type Estimator struct {
	density []float64
	starVol []float64
	mass    []float64
}

// Estimate builds the DTFE field for the given points. masses may be nil
// for unit-mass tracers; otherwise it must have one entry per point.
func Estimate(pts []geom.Vec3, masses []float64) (*Field, error) {
	if masses != nil && len(masses) != len(pts) {
		return nil, fmt.Errorf("dtfe: %d points but %d masses", len(pts), len(masses))
	}
	tr, err := delaunay.Build(pts)
	if err != nil {
		return nil, err
	}
	var e Estimator
	return e.Estimate(tr, masses)
}

// Estimate computes the DTFE field over an existing triangulation, reusing
// the Estimator's buffers. masses may be nil for unit-mass tracers.
func (e *Estimator) Estimate(tr *delaunay.Triangulation, masses []float64) (*Field, error) {
	n := len(tr.Points)
	if masses != nil && len(masses) != n {
		return nil, fmt.Errorf("dtfe: %d points but %d masses", n, len(masses))
	}
	e.density = resize(e.density, n)
	e.starVol = resize(e.starVol, n)
	e.mass = resize(e.mass, n)

	// Star volumes in a single pass over the tets. Each vertex accumulates
	// in ascending tet order, so the floating-point sums are deterministic.
	for ti := range tr.Tets {
		v := tr.TetVolume(ti)
		for _, vi := range tr.Tets[ti].V {
			e.starVol[vi] += v
		}
	}

	// Fold the mass of merged duplicates onto their representative vertex.
	// A tracer dropped during triangulation still carries mass; losing it
	// would break mass conservation (the integral of the field must equal
	// the total tracer mass, see TestMassConservation).
	for i := 0; i < n; i++ {
		m := 1.0
		if masses != nil {
			m = masses[i]
		}
		e.mass[tr.Representative(i)] += m
	}

	for i := 0; i < n; i++ {
		if e.starVol[i] > 0 {
			// (D+1) = 4 in three dimensions: each tet's volume is shared
			// by its 4 vertices.
			e.density[i] = 4 * e.mass[i] / e.starVol[i]
		}
	}
	// Merged duplicates take their representative's density so downstream
	// consumers of Density never see phantom zeros at coincident tracers.
	for i := 0; i < n; i++ {
		if r := tr.Representative(i); r != i {
			e.density[i] = e.density[r]
		}
	}
	return &Field{Tri: tr, Density: e.density}, nil
}

func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// ErrOutside is returned when a sample point lies outside the convex hull
// of the tracers.
var ErrOutside = errors.New("dtfe: point outside the triangulated region")

// ErrDegenerate is returned when the containing tetrahedron has zero
// volume, so barycentric interpolation is undefined. This is a numerical
// failure of the triangulation — callers must not conflate it with
// ErrOutside, which legitimately reads as empty space.
var ErrDegenerate = errors.New("dtfe: degenerate containing tetrahedron")

// SampleWith interpolates the density at p, locating the containing tet
// through loc (which must be built over f.Tri).
func (f *Field) SampleWith(loc *delaunay.Locator, p geom.Vec3) (float64, error) {
	ti := loc.Locate(p)
	if ti < 0 {
		return 0, ErrOutside
	}
	return f.DensityInTet(ti, p)
}

// DensityInTet linearly interpolates the density at p inside tet ti via
// barycentric coordinates.
func (f *Field) DensityInTet(ti int, p geom.Vec3) (float64, error) {
	t := f.Tri.Tets[ti]
	a := f.Tri.Points[t.V[0]]
	b := f.Tri.Points[t.V[1]]
	c := f.Tri.Points[t.V[2]]
	d := f.Tri.Points[t.V[3]]
	// Barycentric coordinates via sub-tetrahedron volumes.
	vTot := geom.Orient3DVal(a, b, c, d)
	if vTot == 0 {
		return 0, ErrDegenerate
	}
	w0 := geom.Orient3DVal(p, b, c, d) / vTot
	w1 := geom.Orient3DVal(a, p, c, d) / vTot
	w2 := geom.Orient3DVal(a, b, p, d) / vTot
	w3 := geom.Orient3DVal(a, b, c, p) / vTot
	return w0*f.Density[t.V[0]] + w1*f.Density[t.V[1]] +
		w2*f.Density[t.V[2]] + w3*f.Density[t.V[3]], nil
}

// SampleStats counts the outcome of every sample in a grid evaluation
// (density.Pipeline.InterpolateSlab).
// Degenerate > 0 means the triangulation produced zero-volume containing
// tets — a numerical failure, not empty space.
type SampleStats struct {
	Inside     int
	Outside    int
	Degenerate int
}

// Add accumulates o into s.
func (s *SampleStats) Add(o SampleStats) {
	s.Inside += o.Inside
	s.Outside += o.Outside
	s.Degenerate += o.Degenerate
}
