package meshio

import "repro/internal/wire"

// EncodeV1 writes m in the v1 layout, which DecodeBlockMesh still reads
// but nothing else writes: every coordinate and scalar as a full float64,
// connectivity as fixed-width integers. It is the tests' exact-mesh
// digest, since unlike v2 it keeps vertex positions bit for bit.
//
//	magic    uint64
//	extents  6 x float64
//	nVerts   uint64, then nVerts x 3 float64
//	nCells   uint64
//	particles nCells x 3 float64
//	ids       nCells x int64
//	volumes   nCells x float64
//	areas     nCells x float64
//	complete  nCells x byte
//	per cell: nFaces uint32, per face: neighbor int64, nVerts uint32,
//	          verts nVerts x uint32
func EncodeV1(m *BlockMesh) []byte {
	geometry, connectivity := m.byteSplit() // the encoded size, less the magic
	w := wire.NewWriter(8 + int(geometry+connectivity))
	w.U64(meshMagic)
	putVec(w, m.Extents.Min)
	putVec(w, m.Extents.Max)
	w.U64(uint64(len(m.Verts)))
	for _, v := range m.Verts {
		putVec(w, v)
	}
	w.U64(uint64(m.NumCells()))
	for _, p := range m.Particles {
		putVec(w, p)
	}
	for _, id := range m.ParticleIDs {
		w.I64(id)
	}
	for _, s := range [][]float64{m.Volumes, m.Areas} {
		for _, v := range s {
			w.F64(v)
		}
	}
	for _, c := range m.Complete {
		var b byte
		if c {
			b = 1
		}
		w.U8(b)
	}
	for c := range m.FaceEnds {
		lo, hi := m.Faces(c)
		w.U32(uint32(hi - lo))
		for f := lo; f < hi; f++ {
			w.I64(m.Neighbors[f])
			w.U32(uint32(len(m.Loop(f))))
			for _, vi := range m.Loop(f) {
				w.U32(uint32(vi))
			}
		}
	}
	return w.Bytes()
}
