// Package viz renders planar slices of the tessellation's density field as
// PNG images — the stand-in for the paper's Figure 1 rendering path (the
// ParaView view of low-density voids amid high-density halos). A pixel is
// colored by the Voronoi density (1/cell volume) of the site owning it,
// which is exact Voronoi membership by nearest-site lookup; periodic
// boundaries are honored by including image sites near the slice.
package viz

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/voronoi"
)

// SliceConfig controls a rendering.
type SliceConfig struct {
	// BoxSize is the periodic box side.
	BoxSize float64
	// Z is the slice height (wrapped into the box).
	Z float64
	// Pixels is the image side length (default 256).
	Pixels int
	// LogScale colors by log10 density instead of linear (default true via
	// NewSliceConfig; zero value means linear).
	LogScale bool
}

// NewSliceConfig returns a config with the defaults used by `tess render`.
func NewSliceConfig(boxSize float64) SliceConfig {
	return SliceConfig{BoxSize: boxSize, Z: boxSize / 2, Pixels: 256, LogScale: true}
}

// RenderDensitySlice renders the z-slice of the Voronoi density field of
// the given sites. volumes must align with sites; unit particle masses are
// assumed (density = 1/volume).
func RenderDensitySlice(sites []geom.Vec3, volumes []float64, cfg SliceConfig) (*image.RGBA, error) {
	if len(sites) == 0 || len(sites) != len(volumes) {
		return nil, fmt.Errorf("viz: %d sites, %d volumes", len(sites), len(volumes))
	}
	if cfg.BoxSize <= 0 {
		return nil, fmt.Errorf("viz: non-positive box %g", cfg.BoxSize)
	}
	if cfg.Pixels <= 0 {
		cfg.Pixels = 256
	}
	L := cfg.BoxSize
	z := math.Mod(cfg.Z, L)
	if z < 0 {
		z += L
	}

	// Periodic images within a margin so nearest-site queries near the
	// boundary see across it. Margin of 3 mean spacings is ample.
	margin := 3 * math.Cbrt(L*L*L/float64(len(sites)))
	if margin > L/2 {
		margin = L / 2
	}
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L))
	expanded := domain.Expand(margin)
	var pts []geom.Vec3
	var ids []int64
	for i, p := range sites {
		for sx := -1.0; sx <= 1; sx++ {
			for sy := -1.0; sy <= 1; sy++ {
				for sz := -1.0; sz <= 1; sz++ {
					img := p.Add(geom.V(sx*L, sy*L, sz*L))
					if expanded.Contains(img) {
						pts = append(pts, img)
						ids = append(ids, int64(i))
					}
				}
			}
		}
	}
	ix := voronoi.NewIndex(pts, ids, 0)

	// Density range for the color map.
	lo, hi := math.Inf(1), math.Inf(-1)
	val := func(i int64) float64 {
		v := volumes[i]
		if v <= 0 {
			return 0
		}
		d := 1 / v
		if cfg.LogScale {
			return math.Log10(d)
		}
		return d
	}
	for i := range sites {
		d := val(int64(i))
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	if hi <= lo {
		hi = lo + 1
	}

	px := cfg.Pixels
	img := image.NewRGBA(image.Rect(0, 0, px, px))
	for py := 0; py < px; py++ {
		for pxx := 0; pxx < px; pxx++ {
			q := geom.Vec3{
				X: (float64(pxx) + 0.5) * L / float64(px),
				Y: (float64(py) + 0.5) * L / float64(px),
				Z: z,
			}
			sp, ok := ix.Nearest(q)
			if !ok {
				img.Set(pxx, py, color.Black)
				continue
			}
			t := (val(sp.ID) - lo) / (hi - lo)
			img.Set(pxx, px-1-py, heat(t)) // y up
		}
	}
	return img, nil
}

// heat maps t in [0,1] through a dark-blue -> magenta -> yellow ramp
// (inferno-like), readable on dark and light backgrounds.
func heat(t float64) color.RGBA {
	t = math.Max(0, math.Min(1, t))
	stops := [][3]float64{
		{0, 0, 20},
		{60, 15, 110},
		{170, 40, 100},
		{250, 130, 40},
		{255, 250, 180},
	}
	x := t * float64(len(stops)-1)
	i := int(x)
	if i >= len(stops)-1 {
		i = len(stops) - 2
	}
	f := x - float64(i)
	a, b := stops[i], stops[i+1]
	return color.RGBA{
		R: uint8(a[0] + f*(b[0]-a[0])),
		G: uint8(a[1] + f*(b[1]-a[1])),
		B: uint8(a[2] + f*(b[2]-a[2])),
		A: 255,
	}
}

// MarkSites overlays site markers (small crosses) on a rendered slice for
// sites within dz of the slice plane.
func MarkSites(img *image.RGBA, sites []geom.Vec3, L, z, dz float64) {
	px := img.Bounds().Dx()
	c := color.RGBA{0, 255, 180, 255}
	for _, p := range sites {
		d := math.Abs(p.Z - z)
		if d > dz && L-d > dz {
			continue
		}
		x := int(p.X / L * float64(px))
		y := px - 1 - int(p.Y/L*float64(px))
		for _, off := range [][2]int{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			xx, yy := x+off[0], y+off[1]
			if xx >= 0 && xx < px && yy >= 0 && yy < px {
				img.Set(xx, yy, c)
			}
		}
	}
}

// WritePNG encodes the image.
func WritePNG(w io.Writer, img image.Image) error {
	return png.Encode(w, img)
}

// RenderGridSlice renders the z-slice of a scalar field sampled on an m^3
// grid (row-major (z*m+y)*m+x, as in density grids and multistream
// fields). zIndex selects the grid layer; values are mapped
// through the heat ramp between the slice's own min and max (log10 when
// logScale and all values are positive).
func RenderGridSlice(field []float64, m int, zIndex, pixels int, logScale bool) (*image.RGBA, error) {
	if m <= 0 || len(field) != m*m*m {
		return nil, fmt.Errorf("viz: field length %d does not match grid %d^3", len(field), m)
	}
	if zIndex < 0 || zIndex >= m {
		return nil, fmt.Errorf("viz: z index %d out of range [0, %d)", zIndex, m)
	}
	if pixels <= 0 {
		pixels = 256
	}
	layer := make([]float64, m*m)
	lo, hi := math.Inf(1), math.Inf(-1)
	allPos := true
	for y := 0; y < m; y++ {
		for x := 0; x < m; x++ {
			v := field[(zIndex*m+y)*m+x]
			layer[y*m+x] = v
			if v <= 0 {
				allPos = false
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	useLog := logScale && allPos
	if useLog {
		for i, v := range layer {
			layer[i] = math.Log10(v)
		}
		lo, hi = math.Log10(lo), math.Log10(hi)
	}
	if hi <= lo {
		hi = lo + 1
	}
	img := image.NewRGBA(image.Rect(0, 0, pixels, pixels))
	for py := 0; py < pixels; py++ {
		for px := 0; px < pixels; px++ {
			gx := px * m / pixels
			gy := py * m / pixels
			t := (layer[gy*m+gx] - lo) / (hi - lo)
			img.Set(px, pixels-1-py, heat(t))
		}
	}
	return img, nil
}
