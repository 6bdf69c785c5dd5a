// Package voids implements the postprocessing analysis of the paper's
// ParaView cosmology-tools plugin (Sec. III-D and Fig. 7): reading tess
// output, volume-threshold filtering, connected-component labeling of
// Voronoi cells into voids, and Minkowski functionals with the derived
// shapefinders (thickness, breadth, length) used to characterize void
// geometry.
package voids

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
)

// CellRecord is one Voronoi cell as read back from storage, flattened
// across blocks.
type CellRecord struct {
	ID       int64
	Site     geom.Vec3
	Volume   float64
	Area     float64
	Block    int
	Complete bool
	// Neighbors are the particle IDs across each face (walls excluded).
	Neighbors []int64
	// FaceAreas align with Neighbors.
	FaceAreas []float64
	// FaceVerts are the face vertex loops in block-local coordinates,
	// aligned with Neighbors (used for curvature integrals).
	FaceVerts [][]geom.Vec3
}

// ReadTessFile loads every block of a tess output file into flat cell
// records — the plugin's "parallel reader".
func ReadTessFile(path string) ([]CellRecord, error) {
	blocks, err := diy.ReadAllBlocks(path)
	if err != nil {
		return nil, err
	}
	var out []CellRecord
	for bi, data := range blocks {
		m, err := meshio.DecodeBlockMesh(data)
		if err != nil {
			return nil, fmt.Errorf("voids: block %d: %w", bi, err)
		}
		out = append(out, CellsFromMesh(m, bi)...)
	}
	return out, nil
}

// CellsFromMesh flattens one block mesh into cell records.
func CellsFromMesh(m *meshio.BlockMesh, block int) []CellRecord {
	out := make([]CellRecord, 0, m.NumCells())
	for i := range m.Particles {
		rec := CellRecord{
			ID:       m.ParticleIDs[i],
			Site:     m.Particles[i],
			Volume:   m.Volumes[i],
			Area:     m.Areas[i],
			Block:    block,
			Complete: m.Complete[i],
		}
		lo, hi := m.Faces(i)
		for f := lo; f < hi; f++ {
			verts := m.Loop(f)
			loop := make([]geom.Vec3, len(verts))
			for k, vi := range verts {
				loop[k] = m.Verts[vi]
			}
			if m.Neighbors[f] < 0 {
				continue
			}
			rec.Neighbors = append(rec.Neighbors, m.Neighbors[f])
			rec.FaceAreas = append(rec.FaceAreas, geom.PolygonArea(loop))
			rec.FaceVerts = append(rec.FaceVerts, loop)
		}
		out = append(out, rec)
	}
	return out
}

// Threshold returns the cells with Volume >= minVolume — the plugin's
// threshold filter, and the void-finding step of Fig. 9: low-density
// regions are exactly the cells with large Voronoi volumes.
func Threshold(cells []CellRecord, minVolume float64) []CellRecord {
	var out []CellRecord
	for _, c := range cells {
		if c.Volume >= minVolume {
			out = append(out, c)
		}
	}
	return out
}

// Label is the whole void-labelling step: cells with Volume >= minVolume
// grouped by face adjacency, largest component first. A minVolume <= 0
// means the mean cell volume. It returns the components and the threshold
// it used; no cells give no components (and a mean of zero, not 0/0).
func Label(cells []CellRecord, minVolume float64) ([]Component, float64) {
	if len(cells) == 0 {
		return nil, math.Max(minVolume, 0)
	}
	if minVolume <= 0 {
		var sum float64
		for _, c := range cells {
			sum += c.Volume
		}
		minVolume = sum / float64(len(cells))
	}
	return ConnectedComponents(Threshold(cells, minVolume)), minVolume
}

// LabelMeshes is Label over gathered block meshes, indexed by block (nil
// slots are skipped).
func LabelMeshes(meshes []*meshio.BlockMesh, minVolume float64) ([]Component, float64) {
	var cells []CellRecord
	for bi, m := range meshes {
		if m != nil {
			cells = append(cells, CellsFromMesh(m, bi)...)
		}
	}
	return Label(cells, minVolume)
}

// Component is one connected component of threshold-surviving cells — a
// cosmological void.
type Component struct {
	// Label is a stable component identifier (the smallest cell ID in it).
	Label int64
	// CellIDs lists the member cells.
	CellIDs []int64
	// Functionals are the component's Minkowski functionals.
	Functionals Minkowski
}

// union-find over int64 IDs.
type dsu struct {
	parent map[int64]int64
}

func newDSU() *dsu { return &dsu{parent: map[int64]int64{}} }

func (d *dsu) find(x int64) int64 {
	p, ok := d.parent[x]
	if !ok {
		d.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	r := d.find(p)
	d.parent[x] = r
	return r
}

func (d *dsu) union(a, b int64) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		if ra < rb {
			d.parent[rb] = ra
		} else {
			d.parent[ra] = rb
		}
	}
}

// ConnectedComponents groups cells into components via face adjacency:
// two surviving cells belong to the same component when they share a
// Voronoi face. Adjacency to cells that did not survive the threshold is
// ignored. The result is sorted by decreasing total volume.
func ConnectedComponents(cells []CellRecord) []Component {
	inSet := make(map[int64]*CellRecord, len(cells))
	for i := range cells {
		inSet[cells[i].ID] = &cells[i]
	}
	d := newDSU()
	for i := range cells {
		d.find(cells[i].ID)
		for _, nb := range cells[i].Neighbors {
			if _, ok := inSet[nb]; ok {
				d.union(cells[i].ID, nb)
			}
		}
	}
	groups := map[int64][]int64{}
	for i := range cells {
		r := d.find(cells[i].ID)
		groups[r] = append(groups[r], cells[i].ID)
	}
	var out []Component
	for _, label := range slices.Sorted(maps.Keys(groups)) {
		ids := groups[label]
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		comp := Component{Label: label, CellIDs: ids}
		members := make([]*CellRecord, len(ids))
		for i, id := range ids {
			members[i] = inSet[id]
		}
		comp.Functionals = ComputeMinkowski(members)
		out = append(out, comp)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Functionals.Volume != out[b].Functionals.Volume {
			return out[a].Functionals.Volume > out[b].Functionals.Volume
		}
		return out[a].Label < out[b].Label
	})
	return out
}

// Minkowski holds the four Minkowski functionals of a component's boundary
// surface plus the derived shapefinders of Sahni, Sathyaprakash & Shandarin
// used by the paper's plugin (Sec. III-D).
type Minkowski struct {
	// Volume is the enclosed volume (sum of member cell volumes).
	Volume float64
	// Area is the boundary surface area: faces between a member cell and
	// a non-member (or a wall of the computation).
	Area float64
	// MeanCurvature is the integrated mean curvature of the boundary,
	// approximated over boundary edges as (1/2) sum length * dihedral.
	MeanCurvature float64
	// EulerChi is the Euler characteristic of the boundary surface
	// (V - E + F); genus = 1 - EulerChi/2 for a closed orientable surface.
	EulerChi int
	// Thickness, Breadth, Length are the shapefinders T = 3V/S,
	// B = S/C, L = C/(4 pi); for nonpositive C the latter two are 0.
	Thickness float64
	Breadth   float64
	Length    float64
}

// Genus returns the genus implied by the Euler characteristic.
func (m Minkowski) Genus() float64 { return 1 - float64(m.EulerChi)/2 }

// ComputeMinkowski evaluates the functionals for a set of member cells.
// Boundary faces are those whose neighbor is not in the member set.
func ComputeMinkowski(members []*CellRecord) Minkowski {
	inSet := make(map[int64]bool, len(members))
	for _, c := range members {
		inSet[c.ID] = true
	}
	var mk Minkowski

	// Boundary surface bookkeeping for Euler characteristic and curvature:
	// vertices are welded by tolerance (checking neighboring hash buckets,
	// so near-bucket-boundary vertices still weld), and edges are keyed by
	// welded vertex IDs.
	weld := newVertexWelder(1e-5)
	type ekey [2]int
	mkEdge := func(a, b int) ekey {
		if a > b {
			a, b = b, a
		}
		return ekey{a, b}
	}
	// Edge accumulators for the dihedral-angle curvature integral.
	type edgeInfo struct {
		length  float64
		normals []geom.Vec3
		count   int
	}
	edges := map[ekey]*edgeInfo{}
	faces := 0

	for _, c := range members {
		mk.Volume += c.Volume
		for fi, nb := range c.Neighbors {
			if inSet[nb] {
				continue // interior face
			}
			mk.Area += c.FaceAreas[fi]
			faces++
			loop := c.FaceVerts[fi]
			n := geom.PolygonNormal(loop).Normalize()
			for i := range loop {
				a, b := loop[i], loop[(i+1)%len(loop)]
				ka, kb := weld.id(a), weld.id(b)
				e := mkEdge(ka, kb)
				info := edges[e]
				if info == nil {
					info = &edgeInfo{length: a.Dist(b)}
					edges[e] = info
				}
				info.normals = append(info.normals, n)
				info.count++
			}
		}
	}

	// Accumulate the curvature integral over edges in sorted key order:
	// float addition is not associative, so ranging over the map directly
	// would perturb MeanCurvature in the last bits from run to run.
	ekeys := slices.SortedFunc(maps.Keys(edges), func(a, b ekey) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	for _, e := range ekeys {
		info := edges[e]
		if len(info.normals) == 2 {
			// Exterior dihedral angle between the two boundary faces.
			d := info.normals[0].Dot(info.normals[1])
			d = math.Max(-1, math.Min(1, d))
			angle := math.Acos(d)
			mk.MeanCurvature += 0.5 * info.length * angle
		}
	}
	mk.EulerChi = weld.count() - len(edges) + faces

	if mk.Area > 0 {
		mk.Thickness = 3 * mk.Volume / mk.Area
	}
	if mk.MeanCurvature > 0 {
		mk.Breadth = mk.Area / mk.MeanCurvature
		mk.Length = mk.MeanCurvature / (4 * math.Pi)
	}
	return mk
}

// vertexWelder assigns stable integer IDs to 3D points, merging points
// within tol of each other. Points are hashed to a grid of cell size tol
// and candidate matches are looked up in the 27 surrounding buckets, so
// points straddling a bucket boundary still weld.
type vertexWelder struct {
	tol     float64
	buckets map[[3]int64][]int
	pts     []geom.Vec3
}

func newVertexWelder(tol float64) *vertexWelder {
	return &vertexWelder{tol: tol, buckets: map[[3]int64][]int{}}
}

func (w *vertexWelder) key(v geom.Vec3) [3]int64 {
	return [3]int64{
		int64(math.Floor(v.X / w.tol)),
		int64(math.Floor(v.Y / w.tol)),
		int64(math.Floor(v.Z / w.tol)),
	}
}

func (w *vertexWelder) id(v geom.Vec3) int {
	k := w.key(v)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for dz := int64(-1); dz <= 1; dz++ {
				for _, id := range w.buckets[[3]int64{k[0] + dx, k[1] + dy, k[2] + dz}] {
					if w.pts[id].Dist(v) <= w.tol {
						return id
					}
				}
			}
		}
	}
	id := len(w.pts)
	w.pts = append(w.pts, v)
	w.buckets[k] = append(w.buckets[k], id)
	return id
}

func (w *vertexWelder) count() int { return len(w.pts) }

// SweepResult is one row of a threshold sweep (the Fig. 9 series).
type SweepResult struct {
	MinVolume  float64
	Cells      int
	Components int
	// LargestVolume is the volume of the biggest component.
	LargestVolume float64
}

// ThresholdSweep runs the Fig. 9 experiment: progressively raising the
// minimum cell volume and counting the connected components (voids) that
// emerge.
func ThresholdSweep(cells []CellRecord, thresholds []float64) []SweepResult {
	out := make([]SweepResult, 0, len(thresholds))
	for _, th := range thresholds {
		surv := Threshold(cells, th)
		comps := ConnectedComponents(surv)
		r := SweepResult{MinVolume: th, Cells: len(surv), Components: len(comps)}
		if len(comps) > 0 {
			r.LargestVolume = comps[0].Functionals.Volume
		}
		out = append(out, r)
	}
	return out
}
