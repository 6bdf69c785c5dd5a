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
	// One counting pass sizes everything the merge allocates.
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

	cells, err := sortedCells(meshes, nCells)
	if err != nil {
		return nil, err
	}
	siteOf := func(id int64) (geom.Vec3, bool) {
		k, ok := slices.BinarySearchFunc(cells, id, func(c srcCell, id int64) int { return cmp.Compare(c.id, id) })
		if !ok {
			return geom.Vec3{}, false
		}
		return meshes[cells[k].mesh].Particles[cells[k].idx], true
	}

	out := &BlockMesh{Extents: domain}
	out.reset(sumVerts, nCells, nFaces, nRefs)
	weldTol := 1e-9 * max(domain.Size().MaxAbs(), 1e-30)
	var pool weldTable
	pool.reset()
	pool.reserve(sumVerts)

	// Per-cell scratch, reused: the face planes and canonical order, one
	// face's coordinates, and the per-source-vertex records.
	var (
		planes []geom.Plane
		order  []int
		coords []geom.Vec3
		rot    []geom.Vec3
	)
	sv := make([]srcVert, maxVerts)

	for ci, cc := range cells {
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
		// adjacent planes. A record belongs to this cell only if it carries
		// the cell's serial, so nothing is cleared between cells.
		serial := int32(ci + 1)
		for _, fi := range order {
			for _, vi := range m.Loop(flo + fi) {
				if vi < 0 || int(vi) >= len(m.Verts) {
					return nil, fmt.Errorf("meshio: cell %d references vertex %d of %d", cc.id, vi, len(m.Verts))
				}
				v := &sv[vi]
				if v.serial != serial {
					*v = srcVert{serial: serial}
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
			coords = coords[:0]
			for _, vi := range m.Loop(flo + fi) {
				v, err := canonVert(vi)
				if err != nil {
					return nil, err
				}
				coords = append(coords, v)
			}
			// Orient the loop outward (agreeing with the bisector normal,
			// which points from the site toward the neighbor), then rotate it
			// to start at the lexicographically smallest vertex. Both are
			// geometric properties, so construction order cannot leak in.
			if newellNormal(coords).Dot(planes[fi].N) < 0 {
				reverseVecs(coords)
			}
			rot = rotateToMin(coords, rot)
			vbase := len(out.LoopVerts)
			for _, v := range coords {
				gi, added := pool.lookupOrAdd(quantize(v, weldTol), int32(len(out.Verts)))
				if added {
					out.Verts = append(out.Verts, v)
				}
				out.LoopVerts = append(out.LoopVerts, gi)
			}
			out.endFace(m.Neighbors[flo+fi])
			// Recompute geometry from the pooled vertices so the stored
			// scalars are exactly consistent with the stored mesh.
			loop := out.LoopVerts[vbase:]
			a := out.Verts[loop[0]]
			for k := 1; k+1 < len(loop); k++ {
				b, c := out.Verts[loop[k]], out.Verts[loop[k+1]]
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

// sortedCells lists every input cell in particle-ID order, rejecting an ID
// that appears twice.
func sortedCells(meshes []*BlockMesh, nCells int) ([]srcCell, error) {
	cells := make([]srcCell, 0, nCells)
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
		return nil, fmt.Errorf("meshio: particle %d appears in more than one block", cells[dup].id)
	}
	return cells, nil
}

// srcVert is the merge's record of one block-local vertex within the cell
// being merged: how many face loops reference it, the first three of those
// faces in canonical order, and its canonical position once solved.
type srcVert struct {
	serial int32 // cell the record belongs to; others are stale
	n      int32
	faces  [3]int32
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

// newellNormal is Newell's polygon normal (unnormalized); its direction
// tells the loop's winding.
func newellNormal(loop []geom.Vec3) geom.Vec3 {
	var n geom.Vec3
	for i := range loop {
		a, b := loop[i], loop[(i+1)%len(loop)]
		n.X += (a.Y - b.Y) * (a.Z + b.Z)
		n.Y += (a.Z - b.Z) * (a.X + b.X)
		n.Z += (a.X - b.X) * (a.Y + b.Y)
	}
	return n
}

func reverseVecs(v []geom.Vec3) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}

// rotateToMin rotates the cyclic loop so the lexicographically smallest
// (X, Y, Z) vertex comes first, preserving winding. It rotates through buf
// and returns it, possibly grown, for the next call.
func rotateToMin(v, buf []geom.Vec3) []geom.Vec3 {
	min := 0
	for i := 1; i < len(v); i++ {
		if lexLess(v[i], v[min]) {
			min = i
		}
	}
	if min == 0 {
		return buf
	}
	buf = append(append(buf[:0], v[min:]...), v[:min]...)
	copy(v, buf)
	return buf
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
