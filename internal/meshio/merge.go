package meshio

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// MergeCanonical combines per-block meshes of one complete tessellation into
// a single decomposition-independent global mesh: runs over the same
// particles with different block counts produce byte-identical encodings.
//
// Block-local cell geometry is not reusable for this — clipping order and
// the block-dependent initial box perturb vertex coordinates at the ulp
// level — so the merge re-derives every vertex canonically: each Voronoi
// vertex is the exact intersection of the three bisector planes between the
// cell site and its face neighbors (taking the nearest periodic image of
// each neighbor), solved by Cramer's rule with the planes ordered by
// neighbor ID. Cells are emitted sorted by particle ID, faces sorted by
// neighbor ID, each face loop oriented outward and rotated to start at its
// lexicographically smallest vertex, and volumes and areas are recomputed
// from the canonical geometry. Only the cell *topology* is taken from the
// inputs, and topology is decomposition-invariant.
//
// The merge requires the full tessellation: every cell complete, no wall
// faces (periodic domains satisfy this), and every face neighbor present as
// a cell site somewhere in the inputs. Nil meshes in the slice are skipped,
// so Output.Meshes can be passed directly.
func MergeCanonical(meshes []*BlockMesh, domain geom.Box, periodic bool) (*BlockMesh, error) {
	var mg Merger
	m, err := mg.Merge(meshes, domain, periodic)
	if err != nil {
		return nil, err
	}
	// A copy of the header, so the result owns its rows and the
	// workspace's scratch is not kept alive by it.
	out := *m
	return &out, nil
}

// Merger is the canonical merge's retained workspace: the sorted cell
// list, the per-vertex records, the weld table, the per-face scratch and
// the output rows are kept across calls, so merging meshes of stable size
// allocates almost nothing after the first call. The merged mesh is a
// loan, valid only until the Merger's next Merge. The zero Merger is
// ready to use; a Merger is not safe for concurrent use.
type Merger struct {
	out    BlockMesh
	cells  []srcCell
	sv     []srcVert
	pool   weldTable
	planes []geom.Plane
	order  []int
	coords []geom.Vec3
	// serial is the last cell serial handed out, carried across calls so
	// that records left by an earlier Merge are stale.
	serial int32
	// probes counts the weld-table lookups of the last Merge.
	probes int
}

// Merge is MergeCanonical into the Merger's retained storage. The
// previous Merge's mesh is invalidated.
func (mg *Merger) Merge(meshes []*BlockMesh, domain geom.Box, periodic bool) (*BlockMesh, error) {
	// One counting pass sizes everything the merge stores.
	var nCells, nFaces, nRefs, sumVerts, maxVerts int
	for _, m := range meshes {
		if m == nil {
			continue
		}
		if err := checkArrays(m); err != nil {
			return nil, err
		}
		nCells += m.NumCells()
		nFaces += len(m.Neighbors)
		nRefs += len(m.LoopVerts)
		sumVerts += len(m.Verts)
		maxVerts = max(maxVerts, len(m.Verts))
	}

	cells, err := sortedCells(mg.cells, meshes, nCells)
	mg.cells = cells[:0]
	if err != nil {
		return nil, err
	}
	// Sorted IDs without repeats are a dense range exactly when the last
	// is len-1 past the first (a span past MaxInt64 wraps negative); then
	// an ID's cell is found by subtraction (unsigned, so an ID below the
	// first is out of range too).
	dense := len(cells) > 0 && cells[len(cells)-1].id-cells[0].id == int64(len(cells)-1)
	siteOf := func(id int64) (geom.Vec3, bool) {
		var k int
		if dense {
			d := uint64(id - cells[0].id)
			if d >= uint64(len(cells)) {
				return geom.Vec3{}, false
			}
			k = int(d)
		} else {
			var ok bool
			k, ok = slices.BinarySearchFunc(cells, id, func(c srcCell, id int64) int { return cmp.Compare(c.id, id) })
			if !ok {
				return geom.Vec3{}, false
			}
		}
		return meshes[cells[k].mesh].Particles[cells[k].idx], true
	}

	out := &mg.out
	out.Extents = domain
	out.reset(sumVerts, nCells, nFaces, nRefs)
	weldTol := 1e-9 * max(domain.Size().MaxAbs(), 1e-30)
	pool := &mg.pool
	pool.reset()
	pool.reserve(sumVerts)
	mg.probes = 0

	// Per-vertex records, indexed by block-local vertex. A record belongs
	// to the cell being merged only if it carries the cell's serial, so
	// nothing is cleared between cells or calls.
	if len(mg.sv) < maxVerts {
		mg.sv = make([]srcVert, maxVerts)
	}
	if int(mg.serial) > math.MaxInt32-nCells {
		clear(mg.sv)
		mg.serial = 0
	}
	sv := mg.sv
	planes, order, coords := mg.planes, mg.order, mg.coords
	defer func() { mg.planes, mg.order, mg.coords = planes[:0], order[:0], coords[:0] }()

	for _, cc := range cells {
		m := meshes[cc.mesh]
		site := m.Particles[cc.idx]
		flo, fhi := m.Faces(int(cc.idx))
		if nf := fhi - flo; nf < 4 {
			return nil, fmt.Errorf("meshio: cell %d has %d faces", cc.id, nf)
		}
		// Canonical plane per face, from the nearest periodic image of the
		// neighbor site; faces ordered by (neighbor ID, plane offset). fi
		// counts the cell's faces, and face flo+fi is m's.
		planes, order = planes[:0], order[:0]
		for fi := range fhi - flo {
			nb := m.Neighbors[flo+fi]
			if nb < 0 {
				return nil, fmt.Errorf("meshio: cell %d has wall face %d; canonical merge requires a complete tessellation", cc.id, nb)
			}
			if n := len(m.Loop(flo + fi)); n < 3 {
				return nil, fmt.Errorf("meshio: cell %d face %d has %d vertices", cc.id, fi, n)
			}
			ns, ok := siteOf(nb)
			if !ok {
				return nil, fmt.Errorf("meshio: neighbor %d of cell %d is not among the merged cells", nb, cc.id)
			}
			if periodic {
				ns = nearestImage(ns, site, domain)
			}
			planes = append(planes, geom.Bisector(site, ns))
			// Insertion sort: a valid cell has one face per neighbor, so the
			// keys are distinct and the order is the only sorted one.
			k := len(order)
			order = append(order, fi)
			for ; k > 0; k-- {
				prev := order[k-1]
				pn := m.Neighbors[flo+prev]
				if pn < nb || (pn == nb && !(planes[fi].D < planes[prev].D)) {
					break
				}
				order[k] = prev
			}
			order[k] = fi
		}

		// Vertex -> adjacent faces over the block-local welded indices (the
		// decomposition-invariant topology). Walking the faces in canonical
		// order, a vertex's first three faces are its three canonically-first
		// adjacent planes.
		mg.serial++
		serial := mg.serial
		for _, fi := range order {
			for _, vi := range m.Loop(flo + fi) {
				if vi < 0 || int(vi) >= len(m.Verts) {
					return nil, fmt.Errorf("meshio: cell %d references vertex %d of %d", cc.id, vi, len(m.Verts))
				}
				v := &sv[vi]
				if v.serial != serial {
					*v = srcVert{serial: serial, gi: -1}
				}
				if v.n < 3 {
					v.faces[v.n] = int32(fi)
				}
				v.n++
			}
		}
		canonVert := func(vi int32) (geom.Vec3, error) {
			v := &sv[vi]
			if v.solved {
				return v.pos, nil
			}
			if v.n < 3 {
				return geom.Vec3{}, fmt.Errorf("meshio: cell %d vertex on %d faces", cc.id, v.n)
			}
			// Any three adjacent planes meet at the same Voronoi vertex, and
			// this choice is decomposition-free.
			p1, p2, p3 := planes[v.faces[0]], planes[v.faces[1]], planes[v.faces[2]]
			det := p1.N.Dot(p2.N.Cross(p3.N))
			if math.Abs(det) < 1e-12 {
				return geom.Vec3{}, fmt.Errorf("meshio: cell %d has a degenerate vertex (plane determinant %g)", cc.id, det)
			}
			v.pos = p2.N.Cross(p3.N).Scale(-p1.D).
				Add(p3.N.Cross(p1.N).Scale(-p2.D)).
				Add(p1.N.Cross(p2.N).Scale(-p3.D)).
				Scale(1 / det)
			v.solved = true
			return v.pos, nil
		}

		var vol, area float64
		for _, fi := range order {
			loop := m.Loop(flo + fi)
			coords = coords[:0]
			for _, vi := range loop {
				v, err := canonVert(vi)
				if err != nil {
					return nil, err
				}
				coords = append(coords, v)
			}
			// Emit the loop oriented outward (agreeing with the bisector
			// normal, which points from the site toward the neighbor) and
			// starting at its lexicographically smallest vertex, the first
			// one met in emission order. Both are geometric properties, so
			// construction order cannot leak in.
			n, first, step := len(loop), 0, 1
			if geom.PolygonNormal(coords).Dot(planes[fi].N) < 0 {
				first, step = n-1, -1
			}
			for k, i := 1, first+step; k < n; k, i = k+1, i+step {
				if lexLess(coords[i], coords[first]) {
					first = i
				}
			}
			// A vertex probes the weld table at its first emitted reference
			// in the cell, which is where a probe per reference would first
			// meet it; later references reuse the pooled index.
			vbase := len(out.LoopVerts)
			for k, i := 0, first; k < n; k++ {
				v := &sv[loop[i]]
				if v.gi < 0 {
					var added bool
					v.gi, added = pool.lookupOrAdd(quantize(v.pos, weldTol), int32(len(out.Verts)))
					mg.probes++
					if added {
						out.Verts = append(out.Verts, v.pos)
					}
				}
				out.LoopVerts = append(out.LoopVerts, v.gi)
				if i += step; i == n {
					i = 0
				} else if i < 0 {
					i = n - 1
				}
			}
			out.endFace(m.Neighbors[flo+fi])
			// Recompute geometry from the pooled vertices so the stored
			// scalars are exactly consistent with the stored mesh.
			pooled := out.LoopVerts[vbase:]
			a := out.Verts[pooled[0]]
			for k := 1; k+1 < len(pooled); k++ {
				b, c := out.Verts[pooled[k]], out.Verts[pooled[k+1]]
				ab, ac := b.Sub(a), c.Sub(a)
				area += 0.5 * ab.Cross(ac).Norm()
				vol += a.Sub(site).Dot(b.Sub(site).Cross(c.Sub(site))) / 6
			}
		}
		out.endCell(site, cc.id, vol, area, m.Complete[cc.idx])
	}
	return out, nil
}

// srcCell locates one input cell: block mesh and index within it.
type srcCell struct {
	id        int64
	mesh, idx int32
}

// inputOrder compares two cells by their position in the inputs.
func (c srcCell) inputOrder(o srcCell) int {
	return cmp.Or(cmp.Compare(c.mesh, o.mesh), cmp.Compare(c.idx, o.idx))
}

// sortedCells lists every input cell in particle-ID order into cells'
// storage, rejecting an ID that appears twice. It returns the slice even on
// error, so its storage can be kept.
func sortedCells(cells []srcCell, meshes []*BlockMesh, n int) ([]srcCell, error) {
	cells = slices.Grow(cells[:0], n)
	for mi, m := range meshes {
		if m == nil {
			continue
		}
		for i, id := range m.ParticleIDs {
			cells = append(cells, srcCell{id: id, mesh: int32(mi), idx: int32(i)})
		}
	}
	slices.SortFunc(cells, func(a, b srcCell) int {
		return cmp.Or(cmp.Compare(a.id, b.id), a.inputOrder(b))
	})
	// Equal IDs sort in input order, so the duplicate an input-order scan
	// would meet first is the earliest second occurrence of any ID.
	dup := -1
	for k := 1; k < len(cells); k++ {
		if cells[k].id == cells[k-1].id && (dup < 0 || cells[k].inputOrder(cells[dup]) < 0) {
			dup = k
		}
	}
	if dup >= 0 {
		return cells, fmt.Errorf("meshio: particle %d appears in more than one block", cells[dup].id)
	}
	return cells, nil
}

// srcVert is the merge's record of one block-local vertex within the cell
// being merged: how many face loops reference it, the first three of those
// faces in canonical order, its canonical position once solved, and its
// index in the merged mesh's vertices once welded.
type srcVert struct {
	serial int32 // cell the record belongs to; others are stale
	n      int32
	faces  [3]int32
	gi     int32 // -1 until welded
	solved bool
	pos    geom.Vec3
}

// nearestImage returns the periodic image of s closest to p in the domain
// box: q = s - L*round((s-p)/L) componentwise. round is exact and
// order-free, so the image choice is decomposition-independent.
func nearestImage(s, p geom.Vec3, domain geom.Box) geom.Vec3 {
	L := domain.Size()
	return geom.Vec3{
		X: s.X - L.X*math.Round((s.X-p.X)/L.X),
		Y: s.Y - L.Y*math.Round((s.Y-p.Y)/L.Y),
		Z: s.Z - L.Z*math.Round((s.Z-p.Z)/L.Z),
	}
}

func lexLess(a, b geom.Vec3) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.Z < b.Z
}
