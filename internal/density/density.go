// Package density is the streaming DTFE density pipeline: tessellate the
// tracers, interpolate the Delaunay field estimate onto a regular sample
// grid, and reduce the grid to a power spectrum and void/percentile
// statistics. It is the analysis stage the paper's in situ framework
// exists to feed (Sec. V couples tessellation output directly to density
// and void analyses), packaged so that core.Session can run it warm
// across snapshots: a Pipeline retains its triangulation scratch, the
// estimator accumulators, and the sample grid between steps.
//
// The pipeline is split into three phases — Triangulate, InterpolateSlab,
// Finalize — so a session can time each under its obs recorder and spread
// interpolation slabs across ranks. Every per-cell sample depends only on
// the triangulation and the cell center (point location goes through an
// immutable delaunay.Locator), so the grid bytes are identical for any
// block count, slab partitioning, or worker count: the decomposition-
// independence oracle the tests pin.
package density

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/delaunay"
	"repro/internal/dtfe"
	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/voronoi"
	"repro/internal/wire"
)

// Config describes a density-pipeline workload. The same Config drives
// every snapshot of a warm session.
type Config struct {
	// GridN is the sample-grid resolution per axis (GridN^3 cells).
	GridN int
	// Box is the sample region; cells are sampled at their centers.
	Box geom.Box
	// Periodic pads the tracer set with periodic images within Pad of the
	// box faces before triangulating, so every sample cell is interior to
	// the hull and the field wraps like the simulation volume.
	Periodic bool
	// Pad is the periodic-image depth; <= 0 picks a quarter of the
	// smallest box side, and NaN or ±Inf is an error. Sessions default it
	// to their ghost size.
	Pad float64
	// Spectrum enables the power-spectrum reduction (requires a cubic box
	// and power-of-two GridN).
	Spectrum bool
	// Percentiles are the density percentiles to report (in [0,100]);
	// nil means {5, 25, 50, 75, 95}.
	Percentiles []float64
	// VoidThreshold classifies a sample cell as void when its density is
	// below VoidThreshold times the grid mean; <= 0 means 0.2.
	VoidThreshold float64
}

func (c *Config) applyDefaults() {
	if c.VoidThreshold <= 0 {
		c.VoidThreshold = 0.2
	}
	if c.Percentiles == nil {
		c.Percentiles = []float64{5, 25, 50, 75, 95}
	}
	if c.Pad <= 0 {
		s := c.Box.Size()
		c.Pad = math.Min(s.X, math.Min(s.Y, s.Z)) / 4
	}
}

// Validate checks the config without mutating it.
func (c Config) Validate() error {
	if c.GridN < 2 {
		return fmt.Errorf("density: grid resolution %d, need >= 2", c.GridN)
	}
	if c.Box.Empty() || c.Box.Volume() <= 0 {
		return fmt.Errorf("density: empty sample box")
	}
	// A NaN pad fails every comparison, so it would pad nothing and leave a
	// "periodic" field with samples outside the hull; +Inf would pad with
	// all 26 image boxes.
	if math.IsNaN(c.Pad) || math.IsInf(c.Pad, 0) {
		return fmt.Errorf("density: periodic pad %g, want a finite depth (<= 0 for the default)", c.Pad)
	}
	if c.Spectrum {
		if !fft.IsPow2(c.GridN) {
			return fmt.Errorf("density: spectrum requires power-of-two grid, got %d", c.GridN)
		}
		s := c.Box.Size()
		if math.Abs(s.X-s.Y) > 1e-9*s.X || math.Abs(s.X-s.Z) > 1e-9*s.X {
			return fmt.Errorf("density: spectrum requires a cubic box, got %v", s)
		}
	}
	for _, p := range c.Percentiles {
		if p < 0 || p > 100 {
			return fmt.Errorf("density: percentile %v outside [0,100]", p)
		}
	}
	return nil
}

// Percentile is one point of the density distribution.
type Percentile struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

// Stats summarizes the sampled density grid.
type Stats struct {
	Mean        float64      `json:"mean"`
	Min         float64      `json:"min"`
	Max         float64      `json:"max"`
	Percentiles []Percentile `json:"percentiles,omitempty"`
	// VoidFrac is the fraction of sample cells below VoidThreshold times
	// the mean.
	VoidFrac float64 `json:"void_frac"`
	// GridMass is the grid integral of the field (mean density times box
	// volume); for a periodic field it must match TracerMass to sampling
	// tolerance — the mass-conservation diagnostic.
	GridMass   float64 `json:"grid_mass"`
	TracerMass float64 `json:"tracer_mass"`
}

// SpectrumBin is one radial bin of the density power spectrum.
type SpectrumBin struct {
	// K is the bin's wavenumber 2*pi*b/L for integer radius b.
	K float64 `json:"k"`
	// Power is the bin-averaged P(k) = |delta_k|^2 L^3 / N^6.
	Power float64 `json:"power"`
	Count int     `json:"count"`
}

// Result is one snapshot's pipeline output. Grid is loaned from the
// Pipeline — valid until its next Triangulate — and Clone detaches it.
type Result struct {
	GridN int      `json:"grid_n"`
	Box   geom.Box `json:"box"`
	// Tracers is the input point count; Padded adds periodic images.
	Tracers  int              `json:"tracers"`
	Padded   int              `json:"padded"`
	Tets     int              `json:"tets"`
	Grid     []float64        `json:"-"`
	Sample   dtfe.SampleStats `json:"sample"`
	Stats    Stats            `json:"stats"`
	Spectrum []SpectrumBin    `json:"spectrum,omitempty"`
	Obs      *obs.Snapshot    `json:"-"`
}

// Clone returns a deep copy that owns its grid and spectrum storage.
func (r *Result) Clone() *Result {
	c := *r
	c.Grid = append([]float64(nil), r.Grid...)
	c.Spectrum = append([]SpectrumBin(nil), r.Spectrum...)
	c.Stats.Percentiles = append([]Percentile(nil), r.Stats.Percentiles...)
	return &c
}

// Pipeline runs the density workload warm across snapshots, retaining the
// triangulation scratch, estimator accumulators, point/grid buffers, and
// FFT storage between steps. The phase methods must be sequenced
// Triangulate → InterpolateSlab (concurrently over disjoint slabs is
// fine) → Finalize; a Pipeline must not run two snapshots concurrently.
type Pipeline struct {
	cfg     Config
	builder delaunay.Builder
	est     dtfe.Estimator

	pts    []geom.Vec3 // tracers + periodic images
	masses []float64
	field  *dtfe.Field
	loc    *delaunay.Locator

	grid    []float64
	sorted  []float64
	fgrid   *fft.Grid3
	tracers int
	res     Result
}

// New validates cfg and returns a pipeline for it.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	return &Pipeline{cfg: cfg}, nil
}

// Compute runs the full pipeline once on a fresh Pipeline and returns an
// owned Result. It is the convenience entry for CLIs and the direct
// single-process oracle the daemon e2e tests compare grid bytes against.
func Compute(cfg Config, pts []geom.Vec3, masses []float64) (*Result, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := p.Step(pts, masses)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// Step runs triangulate → interpolate → finalize serially for one
// snapshot.
func (p *Pipeline) Step(pts []geom.Vec3, masses []float64) (*Result, error) {
	if err := p.Triangulate(pts, masses); err != nil {
		return nil, err
	}
	st := p.InterpolateSlab(0, p.cfg.GridN, 1)
	return p.Finalize(st), nil
}

// Triangulate tessellates the snapshot's tracers (plus periodic images
// when configured) and prepares the DTFE field and point locator. masses
// may be nil for unit tracers.
func (p *Pipeline) Triangulate(pts []geom.Vec3, masses []float64) error {
	if masses != nil && len(masses) != len(pts) {
		return fmt.Errorf("density: %d points but %d masses", len(pts), len(masses))
	}
	p.tracers = len(pts)
	p.pts = append(p.pts[:0], pts...)
	p.masses = p.masses[:0]
	if masses != nil {
		p.masses = append(p.masses, masses...)
	}
	if p.cfg.Periodic {
		p.addImages(masses != nil)
	}
	tr, err := p.builder.Build(p.pts)
	if err != nil {
		return fmt.Errorf("density: triangulate: %w", err)
	}
	var m []float64
	if masses != nil {
		m = p.masses
	}
	f, err := p.est.Estimate(tr, m)
	if err != nil {
		return fmt.Errorf("density: estimate: %w", err)
	}
	p.field = f
	p.loc = tr.NewLocator(0)
	n := p.cfg.GridN
	p.grid = resize(p.grid, n*n*n)
	return nil
}

// TriangulationStats returns the exact Bowyer-Watson work counts of the
// latest Triangulate: why it cost what it cost.
func (p *Pipeline) TriangulationStats() delaunay.Stats { return p.builder.Stats() }

// addImages appends periodic images of the tracers lying within Pad of
// the box, in a fixed tracer-major, offset-minor order so the padded
// point sequence (and hence the triangulation) is deterministic.
func (p *Pipeline) addImages(withMasses bool) {
	box := p.cfg.Box
	size := box.Size()
	outer := box.Expand(p.cfg.Pad)
	n := len(p.pts)
	for i := 0; i < n; i++ {
		pt := p.pts[i]
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					img := pt.Add(geom.V(float64(dx)*size.X, float64(dy)*size.Y, float64(dz)*size.Z))
					if !outer.Contains(img) {
						continue
					}
					p.pts = append(p.pts, img)
					if withMasses {
						p.masses = append(p.masses, p.masses[i])
					}
				}
			}
		}
	}
}

// InterpolateSlab samples grid planes [z0, z1) at cell centers, spreading
// planes over `workers` goroutines, and returns the slab's sample stats.
// Distinct slabs write disjoint planes and only read the immutable field
// and locator, so concurrent calls from different ranks are safe and the
// resulting bytes are independent of the slab/worker partitioning.
func (p *Pipeline) InterpolateSlab(z0, z1, workers int) dtfe.SampleStats {
	n := p.cfg.GridN
	z0 = max(z0, 0)
	z1 = min(z1, n)
	if z0 >= z1 {
		return dtfe.SampleStats{}
	}
	workers = max(workers, 1)
	box := p.cfg.Box
	size := box.Size()
	perWorker := make([]dtfe.SampleStats, workers)
	// ParallelFor hands each worker multiple chunks; accumulate into the
	// worker's slot (each slot has a single sequential writer).
	voronoi.ParallelFor(z1-z0, workers, func(lo, hi, worker int) {
		var st dtfe.SampleStats
		for k := z0 + lo; k < z0+hi; k++ {
			z := box.Min.Z + (float64(k)+0.5)*size.Z/float64(n)
			for j := 0; j < n; j++ {
				y := box.Min.Y + (float64(j)+0.5)*size.Y/float64(n)
				for i := 0; i < n; i++ {
					x := box.Min.X + (float64(i)+0.5)*size.X/float64(n)
					d, err := p.field.SampleWith(p.loc, geom.V(x, y, z))
					switch {
					case err == nil:
						p.grid[(k*n+j)*n+i] = d
						st.Inside++
					case errors.Is(err, dtfe.ErrOutside):
						st.Outside++
					default:
						st.Degenerate++
					}
				}
			}
		}
		perWorker[worker].Add(st)
	})
	var total dtfe.SampleStats
	for _, st := range perWorker {
		total.Add(st)
	}
	return total
}

// Finalize reduces the interpolated grid to statistics (and the power
// spectrum when configured) and assembles the snapshot Result. sample is
// the accumulated stats of the InterpolateSlab calls that covered the
// grid.
func (p *Pipeline) Finalize(sample dtfe.SampleStats) *Result {
	n := p.cfg.GridN
	grid := p.grid

	var sum float64
	for _, v := range grid {
		sum += v
	}
	mean := sum / float64(len(grid))

	p.sorted = append(p.sorted[:0], grid...)
	sort.Float64s(p.sorted)

	st := Stats{
		Mean: mean,
		Min:  p.sorted[0],
		Max:  p.sorted[len(p.sorted)-1],
	}
	st.Percentiles = st.Percentiles[:0]
	for _, q := range p.cfg.Percentiles {
		st.Percentiles = append(st.Percentiles, Percentile{P: q, Value: quantile(p.sorted, q)})
	}
	thr := p.cfg.VoidThreshold * mean
	voids := sort.SearchFloat64s(p.sorted, thr)
	st.VoidFrac = float64(voids) / float64(len(grid))
	st.GridMass = mean * p.cfg.Box.Volume()
	if len(p.masses) > 0 {
		for _, m := range p.masses[:p.tracers] {
			st.TracerMass += m
		}
	} else {
		st.TracerMass = float64(p.tracers)
	}

	p.res = Result{
		GridN:   n,
		Box:     p.cfg.Box,
		Tracers: p.tracers,
		Padded:  len(p.pts),
		Tets:    len(p.field.Tri.Tets),
		Grid:    grid,
		Sample:  sample,
		Stats:   st,
	}
	if p.cfg.Spectrum && mean > 0 {
		p.res.Spectrum = p.spectrum(mean)
	}
	return &p.res
}

// spectrum computes the radially binned power spectrum of the density
// contrast delta = rho/mean - 1. Mode accumulation runs in fixed z,y,x
// order, so bin sums are deterministic.
func (p *Pipeline) spectrum(mean float64) []SpectrumBin {
	n := p.cfg.GridN
	if p.fgrid == nil || p.fgrid.N != n {
		p.fgrid = fft.NewGrid3(n)
	}
	g := p.fgrid
	for i, v := range p.grid {
		g.Data[i] = complex(v/mean-1, 0)
	}
	fft.Forward3(g)

	L := p.cfg.Box.Size().X
	nbins := n / 2
	power := make([]float64, nbins+1)
	count := make([]int, nbins+1)
	for z := 0; z < n; z++ {
		kz := fft.FreqIndex(z, n)
		for y := 0; y < n; y++ {
			ky := fft.FreqIndex(y, n)
			for x := 0; x < n; x++ {
				kx := fft.FreqIndex(x, n)
				r2 := kx*kx + ky*ky + kz*kz
				if r2 == 0 {
					continue
				}
				b := int(math.Sqrt(float64(r2)))
				if b > nbins {
					continue // corner modes beyond the Nyquist sphere
				}
				c := g.Data[(z*n+y)*n+x]
				power[b] += real(c)*real(c) + imag(c)*imag(c)
				count[b]++
			}
		}
	}
	n3 := float64(n) * float64(n) * float64(n)
	norm := L * L * L / (n3 * n3)
	out := make([]SpectrumBin, 0, nbins)
	for b := 1; b <= nbins; b++ {
		if count[b] == 0 {
			continue
		}
		out = append(out, SpectrumBin{
			K:     2 * math.Pi * float64(b) / L,
			Power: power[b] / float64(count[b]) * norm,
			Count: count[b],
		})
	}
	return out
}

// quantile is the nearest-rank quantile of an ascending-sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	idx = min(max(idx, 0), len(sorted)-1)
	return sorted[idx]
}

func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// EncodeGrid serializes a density grid as little-endian float64s — the
// wire format of the daemon's grid-slice endpoint and of the byte-identity
// oracles in the tests.
func EncodeGrid(grid []float64) []byte {
	w := wire.NewWriter(8 * len(grid))
	for _, v := range grid {
		w.F64(v)
	}
	return w.Bytes()
}

// DecodeGrid parses a grid encoded by EncodeGrid.
func DecodeGrid(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("density: grid encoding length %d not a multiple of 8", len(b))
	}
	r := wire.NewReader(b)
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = r.F64()
	}
	return out, nil
}
