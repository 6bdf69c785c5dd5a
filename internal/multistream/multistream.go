// Package multistream computes the multistream field of Shandarin, Habib &
// Heitmann (2012), one of the level-1 feature classifiers in the paper's in
// situ framework (Fig. 4 lists "multistream detection" beside the Voronoi
// tessellation; reference [8] combines tessellations with multistream
// techniques to identify Zel'dovich pancakes).
//
// The field counts, at each sample point, how many streams of the dark
// matter flow pass through it: the initial Lagrangian lattice is decomposed
// into tetrahedra, each tetrahedron is carried forward by its corner
// particles, and the number of deformed tetrahedra covering a point is the
// local stream count. Single-stream regions are voids; three and more
// streams mark collapsed structures (pancakes, filaments, halos).
package multistream

import (
	"fmt"
	"math"

	"repro/internal/cosmo"
	"repro/internal/geom"
)

// sampleOff are the per-axis fractional offsets of sample points within
// their grid cells. They are deliberately irrational-ish and unequal so
// that no sample point can lie exactly on a tetrahedron facet of lattice
// or near-lattice particle configurations (cell centers would sit exactly
// on the Kuhn cut planes and be counted by several tetrahedra at once).
var sampleOff = [3]float64{0.5 + 1/math.Pi/7, 0.5 - 1/math.E/9, 0.5 + 1/math.Sqrt2/11}

// Field is a multistream field sampled on an m^3 grid over the periodic
// box; sample (x, y, z) is at ((x+ox)h, (y+oy)h, (z+oz)h) with the
// tie-breaking offsets above.
type Field struct {
	M       int
	BoxSize float64
	// Streams[(z*M+y)*M+x] is the stream count at sample (x, y, z).
	Streams []int32
}

// kuhnTets is the 6-tetrahedron (Kuhn) decomposition of the unit cube,
// each row holding 4 corner indices into the cube corner ordering
// (i, j, k) -> i + 2j + 4k.
var kuhnTets = [6][4]int{
	{0, 1, 3, 7},
	{0, 1, 5, 7},
	{0, 2, 3, 7},
	{0, 2, 6, 7},
	{0, 4, 5, 7},
	{0, 4, 6, 7},
}

// ValidateGrid is Compute's rule for its sampling grid: a positive grid
// side m and box size (NaN fails).
func ValidateGrid(m int, boxSize float64) error {
	if m <= 0 || !(boxSize > 0) {
		return fmt.Errorf("multistream: invalid grid %d or box %g", m, boxSize)
	}
	return nil
}

// Compute builds the multistream field from the current particle positions
// pos, which must be indexed by initial lattice site ((z*ng+y)*ng+x) as
// produced by cosmo.ZeldovichIC and preserved by the N-body integrator.
// The field is sampled on an m^3 grid.
func Compute(pos []geom.Vec3, ng int, boxSize float64, m int) (*Field, error) {
	if len(pos) != ng*ng*ng {
		return nil, fmt.Errorf("multistream: %d positions for ng=%d (want %d)", len(pos), ng, ng*ng*ng)
	}
	if err := ValidateGrid(m, boxSize); err != nil {
		return nil, err
	}
	f := &Field{M: m, BoxSize: boxSize, Streams: make([]int32, m*m*m)}
	h := boxSize / float64(m)

	latIdx := func(i, j, k int) int {
		i = ((i % ng) + ng) % ng
		j = ((j % ng) + ng) % ng
		k = ((k % ng) + ng) % ng
		return (k*ng+j)*ng + i
	}

	// For each Lagrangian cube, unwrap its 8 corner positions into a
	// coherent neighborhood of the corner (0,0,0) particle, split into
	// Kuhn tetrahedra, and rasterize each tetrahedron onto the sample
	// grid.
	var corners [8]geom.Vec3
	for k := 0; k < ng; k++ {
		for j := 0; j < ng; j++ {
			for i := 0; i < ng; i++ {
				ref := pos[latIdx(i, j, k)]
				for c := 0; c < 8; c++ {
					ci, cj, ck := c&1, (c>>1)&1, (c>>2)&1
					p := pos[latIdx(i+ci, j+cj, k+ck)]
					corners[c] = ref.Add(cosmo.MinImage(ref, p, boxSize))
				}
				for _, t := range kuhnTets {
					rasterizeTet(f, h,
						corners[t[0]], corners[t[1]], corners[t[2]], corners[t[3]])
				}
			}
		}
	}
	return f, nil
}

// rasterizeTet adds 1 to every sample point inside the tetrahedron. Sample
// points are cell centers (x+0.5)*h; the tetrahedron may hang outside the
// box, in which case the counts wrap periodically.
func rasterizeTet(f *Field, h float64, a, b, c, d geom.Vec3) {
	vol := geom.Orient3DVal(a, b, c, d)
	if vol == 0 {
		return
	}
	bb := geom.BoundingBox([]geom.Vec3{a, b, c, d})
	lo := [3]int{
		int(math.Floor(bb.Min.X/h - sampleOff[0])),
		int(math.Floor(bb.Min.Y/h - sampleOff[1])),
		int(math.Floor(bb.Min.Z/h - sampleOff[2])),
	}
	hi := [3]int{
		int(math.Ceil(bb.Max.X/h - sampleOff[0])),
		int(math.Ceil(bb.Max.Y/h - sampleOff[1])),
		int(math.Ceil(bb.Max.Z/h - sampleOff[2])),
	}
	m := f.M
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for x := lo[0]; x <= hi[0]; x++ {
				p := geom.Vec3{
					X: (float64(x) + sampleOff[0]) * h,
					Y: (float64(y) + sampleOff[1]) * h,
					Z: (float64(z) + sampleOff[2]) * h,
				}
				if !inTet(p, a, b, c, d, vol) {
					continue
				}
				xi := ((x % m) + m) % m
				yi := ((y % m) + m) % m
				zi := ((z % m) + m) % m
				f.Streams[(zi*m+yi)*m+xi]++
			}
		}
	}
}

// inTet reports whether p lies strictly inside the tetrahedron: every
// sub-volume must carry the same strict sign as vol. Facet points are
// excluded for both orientations; the sample offsets guarantee they do not
// occur for (near-)lattice inputs.
func inTet(p, a, b, c, d geom.Vec3, vol float64) bool {
	sgn := 1.0
	if vol < 0 {
		sgn = -1
	}
	if sgn*geom.Orient3DVal(p, b, c, d) <= 0 {
		return false
	}
	if sgn*geom.Orient3DVal(a, p, c, d) <= 0 {
		return false
	}
	if sgn*geom.Orient3DVal(a, b, p, d) <= 0 {
		return false
	}
	if sgn*geom.Orient3DVal(a, b, c, p) <= 0 {
		return false
	}
	return true
}

// Stats summarizes a multistream field: the fraction of samples with 1
// stream (void regions), 3 or more (collapsed), and the maximum.
type Stats struct {
	SingleStream float64
	ThreePlus    float64
	Max          int32
	Mean         float64
}

// Summarize computes the field statistics.
func (f *Field) Summarize() Stats {
	var s Stats
	var sum int64
	for _, v := range f.Streams {
		sum += int64(v)
		if v == 1 {
			s.SingleStream++
		}
		if v >= 3 {
			s.ThreePlus++
		}
		if v > s.Max {
			s.Max = v
		}
	}
	n := float64(len(f.Streams))
	s.SingleStream /= n
	s.ThreePlus /= n
	s.Mean = float64(sum) / n
	return s
}
