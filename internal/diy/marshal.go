package diy

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/wire"
)

// Decomposition (de)serialization for checkpoint/restart: a resumed
// session must re-install the *identical* decomposition — block bounds
// bit-for-bit, RCB split planes and neighborhood links included — so
// that warm-state reuse and the targeted exchange behave exactly as in
// the uninterrupted run. The encoding is the same little-endian style
// as the mesh and blockio formats, with its own magic.

const decompMagic uint64 = 0x7465737344435031 // "tessDCP1"

func putVec(w *wire.Writer, v geom.Vec3) { w.F64(v.X); w.F64(v.Y); w.F64(v.Z) }
func putBox(w *wire.Writer, b geom.Box)  { putVec(w, b.Min); putVec(w, b.Max) }
func getVec(r *wire.Reader) geom.Vec3 {
	return geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
}
func getBox(r *wire.Reader) geom.Box { return geom.Box{Min: getVec(r), Max: getVec(r)} }

// Minimum encoded sizes, for validating counts against remaining input.
const (
	blockBytes   = 8 + 3*8 + 6*8     // rank, coords, bounds
	rcbNodeBytes = 4 + 8 + 4 + 4     // axis, split, left, right
	linkBytes    = 8 + 3*8 + 3*8 + 1 // rank, dir, shift, periodic
)

// MarshalBinary serializes the decomposition, including the RCB split
// tree and precomputed neighborhood links when present.
func (d *Decomposition) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(128 + blockBytes*len(d.blocks))
	w.U64(decompMagic)
	putBox(w, d.Domain)
	for a := 0; a < 3; a++ {
		w.I64(int64(d.Dims[a]))
	}
	w.Bool(d.Periodic)
	w.U64(uint64(len(d.blocks)))
	for _, b := range d.blocks {
		w.I64(int64(b.Rank))
		for a := 0; a < 3; a++ {
			w.I64(int64(b.Coords[a]))
		}
		putBox(w, b.Bounds)
	}
	w.Bool(d.rcb != nil)
	if d.rcb != nil {
		w.U64(uint64(len(d.rcb.nodes)))
		for _, nd := range d.rcb.nodes {
			w.I32(int32(nd.axis))
			w.F64(nd.split)
			w.I32(nd.left)
			w.I32(nd.right)
		}
		w.I32(d.rcb.root)
		w.F64(d.rcb.linkGhost)
		w.U64(uint64(len(d.rcb.links)))
		for _, ls := range d.rcb.links {
			w.U64(uint64(len(ls)))
			for _, n := range ls {
				w.I64(int64(n.Rank))
				for a := 0; a < 3; a++ {
					w.I64(int64(n.Dir[a]))
				}
				putVec(w, n.Shift)
				w.Bool(n.Periodic)
			}
		}
	}
	return w.Bytes(), nil
}

// UnmarshalDecomposition parses a decomposition produced by
// MarshalBinary. What it returns is safe to use: every index a later
// Locate, Neighbors or NewExchanger follows (block ranks, grid
// coordinates, RCB child references, link targets) has been checked
// here, so a corrupt checkpoint is an error at resume, not a panic in
// the session.
func UnmarshalDecomposition(data []byte) (*Decomposition, error) {
	r := wire.NewReader(data)
	if magic := r.U64(); magic != decompMagic {
		r.Fail("bad decomposition magic %#x", magic)
	}
	d := &Decomposition{}
	d.Domain = getBox(r)
	for a := 0; a < 3; a++ {
		d.Dims[a] = int(r.I64())
	}
	d.Periodic = r.Bool()
	nb := r.Count("block", r.U64(), blockBytes)
	if nb == 0 {
		r.Fail("decomposition has no blocks")
	}
	d.blocks = make([]Block, nb)
	for i := range d.blocks {
		b := &d.blocks[i]
		if b.Rank = int(r.I64()); b.Rank != i {
			r.Fail("block %d records rank %d", i, b.Rank)
		}
		for a := 0; a < 3; a++ {
			b.Coords[a] = int(r.I64())
		}
		b.Bounds = getBox(r)
	}
	if r.Bool() {
		d.rcb = unmarshalRCB(r, nb)
	} else {
		checkGrid(r, d)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("diy: %w", err)
	}
	return d, nil
}

// checkGrid validates what Locate and RankAt index with: the block grid
// has exactly one block per cell, stored in grid order (x fastest).
func checkGrid(r *wire.Reader, d *Decomposition) {
	nb, dims := len(d.blocks), d.Dims
	cells := 1
	for a := 0; a < 3; a++ {
		// Each factor and the running product stay <= nb, so the product
		// cannot overflow.
		if dims[a] < 1 || dims[a] > nb || cells > nb {
			cells = -1
			break
		}
		cells *= dims[a]
	}
	if cells != nb {
		r.Fail("grid dims %v for %d blocks", dims, nb)
		return
	}
	for i, b := range d.blocks {
		if want := [3]int{i % dims[0], i / dims[0] % dims[1], i / (dims[0] * dims[1])}; b.Coords != want {
			r.Fail("block %d has grid coordinates %v, want %v", i, b.Coords, want)
			return
		}
	}
}

// unmarshalRCB reads the RCB split tree and links of an nb-block
// decomposition. buildRCBTree emits nodes pre-order, so requiring every
// interior reference to point past its parent (and inside the node
// table) both bounds the index and rules out cycles; a leaf reference
// ^ref and every link target must name a block.
func unmarshalRCB(r *wire.Reader, nb int) *rcbState {
	s := &rcbState{}
	s.nodes = make([]rcbNode, r.Count("rcb node", r.U64(), rcbNodeBytes))
	checkRef := func(parent int, ref int32) {
		bad := int(ref) <= parent || int(ref) >= len(s.nodes)
		if ref < 0 {
			bad = int(^ref) >= nb
		}
		if bad {
			r.Fail("rcb node %d has child reference %d (%d nodes, %d blocks)", parent, ref, len(s.nodes), nb)
		}
	}
	for i := range s.nodes {
		nd := &s.nodes[i]
		if nd.axis = int(r.I32()); nd.axis < 0 || nd.axis > 2 {
			r.Fail("rcb node %d splits axis %d", i, nd.axis)
		}
		nd.split = r.F64()
		nd.left, nd.right = r.I32(), r.I32()
		checkRef(i, nd.left)
		checkRef(i, nd.right)
	}
	s.root = r.I32()
	checkRef(-1, s.root)
	s.linkGhost = r.F64()
	nl := r.Count("link list", r.U64(), 8)
	if nl != nb {
		r.Fail("%d link lists for %d blocks", nl, nb)
	}
	s.links = make([][]Neighbor, nl)
	for i := range s.links {
		s.links[i] = make([]Neighbor, r.Count("link", r.U64(), linkBytes))
		for j := range s.links[i] {
			n := &s.links[i][j]
			if n.Rank = int(r.I64()); n.Rank < 0 || n.Rank >= nb {
				r.Fail("block %d links to rank %d of %d", i, n.Rank, nb)
			}
			for a := 0; a < 3; a++ {
				n.Dir[a] = int(r.I64())
			}
			n.Shift = getVec(r)
			n.Periodic = r.Bool()
		}
	}
	return s
}
