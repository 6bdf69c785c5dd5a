// Package voids implements the postprocessing analysis of the paper's
// ParaView cosmology-tools plugin (Sec. III-D and Fig. 7): reading tess
// output, volume-threshold filtering, connected-component labeling of
// Voronoi cells into voids, and Minkowski functionals with the derived
// shapefinders (thickness, breadth, length) used to characterize void
// geometry.
package voids

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
)

// CellRecord is one Voronoi cell as read back from storage, flattened
// across blocks. It is a view of the decoded block mesh, not a copy: its
// face rows stay in the mesh, where the Minkowski functionals read them.
type CellRecord struct {
	ID       int64
	Site     geom.Vec3
	Volume   float64
	Area     float64
	Block    int
	Complete bool
	// Neighbors are the particle IDs across each face, the cell's run of
	// the mesh's Neighbors row: walls of the computation are negative IDs,
	// which match no cell.
	Neighbors []int64

	mesh *meshio.BlockMesh // nil for a record built by hand: no face loops
	face int               // the mesh index of the cell's first face
}

// loop returns the vertex loop of the record's face j.
func (c *CellRecord) loop(j int) []int32 {
	if c.mesh == nil {
		return nil
	}
	return c.mesh.Loop(c.face + j)
}

// ReadTessFile loads every block of a tess output file into flat cell
// records — the plugin's "parallel reader".
func ReadTessFile(path string) ([]CellRecord, error) {
	blocks, err := diy.ReadAllBlocks(path)
	if err != nil {
		return nil, err
	}
	meshes := make([]*meshio.BlockMesh, len(blocks))
	for bi, data := range blocks {
		if meshes[bi], err = meshio.DecodeBlockMesh(data); err != nil {
			return nil, fmt.Errorf("voids: block %d: %w", bi, err)
		}
	}
	return cellsOf(meshes, 0), nil
}

// CellsFromMesh flattens one block mesh into cell records.
func CellsFromMesh(m *meshio.BlockMesh, block int) []CellRecord {
	return cellsOf([]*meshio.BlockMesh{m}, block)
}

// cellsOf flattens block meshes, numbered on from block, into one slice of
// cell records (nil slots are skipped).
func cellsOf(meshes []*meshio.BlockMesh, block int) []CellRecord {
	n := 0
	for _, m := range meshes {
		if m != nil {
			n += m.NumCells()
		}
	}
	out := make([]CellRecord, 0, n)
	for bi, m := range meshes {
		if m == nil {
			continue
		}
		for i, id := range m.ParticleIDs {
			lo, hi := m.Faces(i)
			out = append(out, CellRecord{
				ID:        id,
				Site:      m.Particles[i],
				Volume:    m.Volumes[i],
				Area:      m.Areas[i],
				Block:     block + bi,
				Complete:  m.Complete[i],
				Neighbors: m.Neighbors[lo:hi:hi],
				mesh:      m,
				face:      lo,
			})
		}
	}
	return out
}

// Threshold returns the cells with Volume >= minVolume — the plugin's
// threshold filter, and the void-finding step of Fig. 9: low-density
// regions are exactly the cells with large Voronoi volumes.
func Threshold(cells []CellRecord, minVolume float64) []CellRecord {
	n := 0
	for _, c := range cells {
		if c.Volume >= minVolume {
			n++
		}
	}
	out := make([]CellRecord, 0, n)
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
	return Label(cellsOf(meshes, 0), minVolume)
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

// idIndex lists the records' IDs in increasing order, once each: a
// repeated ID keeps its first record and the rest are ignored.
type idIndex struct {
	ids []int64 // sorted, distinct
	rec []int   // rec[p] is the position in the records of ids[p]
}

// newIDIndex indexes cells; dup is the position in cells of a record
// whose ID an earlier record has, or -1 if every ID is distinct.
func newIDIndex(cells []CellRecord) (ix idIndex, dup int) {
	ix.rec = make([]int, len(cells))
	for i := range ix.rec {
		ix.rec[i] = i
	}
	slices.SortFunc(ix.rec, func(a, b int) int { return cmp.Or(cmp.Compare(cells[a].ID, cells[b].ID), a-b) })
	ix.ids = make([]int64, 0, len(cells))
	dup = -1
	for _, r := range ix.rec {
		if n := len(ix.ids); n > 0 && ix.ids[n-1] == cells[r].ID {
			dup = r
			continue
		}
		ix.rec[len(ix.ids)] = r
		ix.ids = append(ix.ids, cells[r].ID)
	}
	ix.rec = ix.rec[:len(ix.ids)]
	return ix, dup
}

// find returns the index position of id, or -1 if no record has it.
func (ix idIndex) find(id int64) int {
	if p, ok := slices.BinarySearch(ix.ids, id); ok {
		return p
	}
	return -1
}

// unionFind is a disjoint-set forest over index positions; a set's root
// is its smallest position, so its smallest ID.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra < rb {
		u[rb] = ra
	} else if rb < ra {
		u[ra] = rb
	}
}

// groups flattens a forest, where root[x] is x's root or a parent before
// x, and gathers each tree's positions in increasing order into members,
// tree g being members[bounds[g]:bounds[g+1]], the trees in increasing
// order of their roots.
func groups(root []int) (members, bounds []int) {
	start := make([]int, len(root))
	trees := 0
	for x := range root {
		root[x] = root[root[x]] // root[x] < x points at its root by now
		start[root[x]]++
		if root[x] == x {
			trees++
		}
	}
	bounds = make([]int, 1, trees+1)
	for r, size := range start {
		if size > 0 {
			start[r] = bounds[len(bounds)-1]
			bounds = append(bounds, start[r]+size)
		}
	}
	members = make([]int, len(root))
	for x, r := range root {
		members[start[r]] = x
		start[r]++
	}
	return members, bounds
}

// ConnectedComponents groups cells into components via face adjacency:
// two surviving cells belong to the same component when they share a
// Voronoi face. Adjacency to cells that did not survive the threshold is
// ignored, and a repeated cell ID counts once, as its first record. The
// result is sorted by decreasing total volume.
func ConnectedComponents(cells []CellRecord) []Component {
	ix, _ := newIDIndex(cells)
	u := newUnionFind(len(ix.ids))
	for p, r := range ix.rec {
		for _, nb := range cells[r].Neighbors {
			if q := ix.find(nb); q >= 0 {
				u.union(p, q)
			}
		}
	}
	members, bounds := groups(u)
	ids := make([]int64, len(members))
	recs := make([]*CellRecord, len(members))
	for i, p := range members {
		ids[i] = ix.ids[p]
		recs[i] = &cells[ix.rec[p]]
	}
	// Size the scratch space once, for the longest boundary: the loop
	// entries of each component's boundary faces, by root.
	var root int
	inSet := func(id int64) bool {
		q := ix.find(id)
		return q >= 0 && u[q] == root
	}
	boundary, most := make([]int, len(u)), 0
	for p, r := range ix.rec {
		c := &cells[r]
		root = u[p]
		for j, nb := range c.Neighbors {
			if nb >= 0 && !inSet(nb) {
				boundary[root] += len(c.loop(j))
				most = max(most, boundary[root])
			}
		}
	}
	var mk minkowski
	mk.reserve(most)
	out := make([]Component, 0, len(bounds)-1)
	for g := range len(bounds) - 1 {
		lo, hi := bounds[g], bounds[g+1]
		root = members[lo]
		out = append(out, Component{
			Label:       ix.ids[root],
			CellIDs:     ids[lo:hi:hi],
			Functionals: mk.compute(recs[lo:hi], inSet, boundary[root]),
		})
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
	// a non-member (walls of the computation are not boundary).
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

// minkowski evaluates a component's functionals in scratch space reused
// from one component to the next. Boundary faces are those whose neighbor
// is not in the component; wall faces of the computation are not boundary.
type minkowski struct {
	loop    []geom.Vec3 // the boundary face at hand
	normals []geom.Vec3 // unit normal of each boundary face
	edges   []edge
	weld    vertexWelder
}

// edge is one boundary face's use of an edge between welded vertices.
type edge struct {
	key    uint64 // the welded vertex IDs, smaller in the high half
	seq    int32  // order of use, so the first use sorts first
	face   int32  // the boundary face using it
	length float64
}

// reserve makes room for boundaries of n loop entries, each face having
// three or more.
func (s *minkowski) reserve(n int) {
	s.normals = slices.Grow(s.normals, n/3)
	s.edges = slices.Grow(s.edges, n)
	s.weld.reset(n)
}

// compute evaluates the functionals of members, with inSet telling which
// neighbor IDs are members and n the loop entries of their boundary.
func (s *minkowski) compute(members []*CellRecord, inSet func(int64) bool, n int) Minkowski {
	var mk Minkowski
	s.normals, s.edges = s.normals[:0], s.edges[:0]
	// Boundary surface bookkeeping for Euler characteristic and curvature:
	// vertices are welded by tolerance (checking neighboring hash buckets,
	// so near-bucket-boundary vertices still weld), and edges are keyed by
	// welded vertex IDs.
	s.weld.reset(n)
	for _, c := range members {
		mk.Volume += c.Volume
		for j, nb := range c.Neighbors {
			if nb < 0 || inSet(nb) {
				continue // a wall, or an interior face
			}
			loop := s.loop[:0]
			for _, v := range c.loop(j) {
				loop = append(loop, c.mesh.Verts[v])
			}
			s.loop = loop
			mk.Area += geom.PolygonArea(loop)
			face := int32(len(s.normals))
			s.normals = append(s.normals, geom.PolygonNormal(loop).Normalize())
			// Each edge welds both its ends. The b of one edge is the a of
			// the next, welded twice running, so to the same ID: weld it
			// once. The last edge's b, the first point, welds afresh.
			var ka int
			if len(loop) > 0 {
				ka = s.weld.id(loop[0])
			}
			for i, a := range loop {
				b := loop[(i+1)%len(loop)]
				kb := s.weld.id(b)
				s.edges = append(s.edges, edge{
					key: uint64(min(ka, kb))<<32 | uint64(max(ka, kb)), seq: int32(len(s.edges)), face: face, length: a.Dist(b),
				})
				ka = kb
			}
		}
	}

	// Accumulate the curvature integral over edges in sorted key order, so
	// the float sum does not depend on the order faces were met in.
	slices.SortFunc(s.edges, func(a, b edge) int { return cmp.Or(cmp.Compare(a.key, b.key), int(a.seq-b.seq)) })
	nEdges := 0
	for i, j := 0, 0; i < len(s.edges); i = j {
		for j = i + 1; j < len(s.edges) && s.edges[j].key == s.edges[i].key; j++ {
		}
		nEdges++
		if j-i == 2 {
			// Exterior dihedral angle between the two boundary faces.
			d := s.normals[s.edges[i].face].Dot(s.normals[s.edges[i+1].face])
			d = math.Max(-1, math.Min(1, d))
			angle := math.Acos(d)
			mk.MeanCurvature += 0.5 * s.edges[i].length * angle
		}
	}
	mk.EulerChi = len(s.weld.pts) - nEdges + len(s.normals)

	if mk.Area > 0 {
		mk.Thickness = 3 * mk.Volume / mk.Area
	}
	if mk.MeanCurvature > 0 {
		mk.Breadth = mk.Area / mk.MeanCurvature
		mk.Length = mk.MeanCurvature / (4 * math.Pi)
	}
	return mk
}

// vertexWelder assigns stable integer IDs to 3D points, in the order they
// are first seen, merging points within weldTol of each other. Points are
// hashed to a grid of cell size weldTol and candidate matches are looked up
// in the 27 surrounding buckets, so points straddling a bucket boundary
// still weld. The buckets share one linear-probing table of point IDs,
// which never deletes, so a bucket's points lie along its probe sequence
// in the order they were added.
type vertexWelder struct {
	pts   []geom.Vec3
	keys  [][3]int64 // bucket of each point
	slots []int32    // point ID + 1, or 0 for an empty slot
}

// weldTol is the distance within which the welder merges points.
const weldTol = 1e-5

// reset empties w, with room for n points.
func (w *vertexWelder) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(w.slots) < size {
		w.slots = make([]int32, size)
	}
	w.slots = w.slots[:size]
	clear(w.slots)
	w.pts = slices.Grow(w.pts[:0], n)
	w.keys = slices.Grow(w.keys[:0], n)
}

// slot returns the start of bucket k's probe sequence.
func (w *vertexWelder) slot(k [3]int64) int {
	h := uint64(k[0])*0x9e3779b97f4a7c15 ^ uint64(k[1])*0xc2b2ae3d27d4eb4f ^ uint64(k[2])*0x165667b19e3779f9
	return int(h^h>>32) & (len(w.slots) - 1)
}

func (w *vertexWelder) id(v geom.Vec3) int {
	k := [3]int64{int64(math.Floor(v.X / weldTol)), int64(math.Floor(v.Y / weldTol)), int64(math.Floor(v.Z / weldTol))}
	mask := len(w.slots) - 1
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for dz := int64(-1); dz <= 1; dz++ {
				b := [3]int64{k[0] + dx, k[1] + dy, k[2] + dz}
				for h := w.slot(b); w.slots[h] != 0; h = (h + 1) & mask {
					if id := w.slots[h] - 1; w.keys[id] == b && w.pts[id].Dist(v) <= weldTol {
						return int(id)
					}
				}
			}
		}
	}
	h := w.slot(k)
	for w.slots[h] != 0 {
		h = (h + 1) & mask
	}
	w.slots[h] = int32(len(w.pts) + 1)
	w.pts = append(w.pts, v)
	w.keys = append(w.keys, k)
	return len(w.pts) - 1
}

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
