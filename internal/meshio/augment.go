package meshio

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/wire"
)

// AugmentedParticle is a particle position annotated with its Voronoi cell
// volume and the implied local density — the paper's proposed augmented
// output (Sec. V: "augment the output of particle positions with the cell
// volume or density at each site as an indication of the density of the
// region surrounding each particle").
type AugmentedParticle struct {
	ID      int64
	Pos     geom.Vec3
	Volume  float64
	Density float64 // unit mass / cell volume
}

// AugmentParticles builds the augmented particle list from a block mesh.
func AugmentParticles(m *BlockMesh) []AugmentedParticle {
	out := make([]AugmentedParticle, m.NumCells())
	for i := range out {
		d := 0.0
		if m.Volumes[i] > 0 {
			d = 1 / m.Volumes[i]
		}
		out[i] = AugmentedParticle{
			ID:      m.ParticleIDs[i],
			Pos:     m.Particles[i],
			Volume:  m.Volumes[i],
			Density: d,
		}
	}
	return out
}

const augmentMagic uint64 = 0x7041554756313000 // "pAUGV10"

const augmentRecSize = 56

// EncodeAugmented serializes augmented particles (56 bytes each plus an
// 16-byte header) — 40% more than HACC's 40-byte checkpoint record, far
// below the ~450 bytes of a full tessellation, as the paper's size
// discussion anticipates.
func EncodeAugmented(ps []AugmentedParticle) ([]byte, error) {
	w := wire.NewWriter(16 + augmentRecSize*len(ps))
	w.U64(augmentMagic)
	w.U64(uint64(len(ps)))
	for _, p := range ps {
		// id + 3 coords + volume + density (48 bytes of payload); the
		// reserved word keeps records 8-aligned at 56 bytes.
		w.I64(p.ID)
		putVec(w, p.Pos)
		w.F64(p.Volume)
		w.F64(p.Density)
		w.U64(0)
	}
	return w.Bytes(), nil
}

// DecodeAugmented parses EncodeAugmented output.
func DecodeAugmented(data []byte) ([]AugmentedParticle, error) {
	r := wire.NewReader(data)
	if magic := r.U64(); magic != augmentMagic {
		r.Fail("bad augmented-particle magic %#x", magic)
	}
	out := make([]AugmentedParticle, r.Count("particle", r.U64(), augmentRecSize))
	for i := range out {
		out[i] = AugmentedParticle{ID: r.I64(), Pos: getVec(r), Volume: r.F64(), Density: r.F64()}
		r.U64() // reserved
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("meshio: %w", err)
	}
	return out, nil
}
