package meshio_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/diy"
	"repro/internal/geom"
	"repro/internal/meshio"
)

// haloMockBlocks are the eight RCB blocks of the postproc-clustered
// workload's input: a 24^3 halo mock, culled at a tenth of the mean cell
// volume.
func haloMockBlocks(tb testing.TB) []*meshio.BlockMesh {
	tb.Helper()
	const L = 24.0
	pos := cosmo.ClusteredPositions(24*24*24, L, cosmo.DefaultClusterParams())
	ps := make([]diy.Particle, len(pos))
	for i, p := range pos {
		ps[i] = diy.Particle{ID: int64(i), Pos: p}
	}
	cfg := core.Config{
		Domain:        geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)),
		Periodic:      true,
		GhostSize:     4,
		Decomposition: core.DecomposeRCB,
		MinVolume:     0.1,
	}
	out, err := core.Run(cfg, ps, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return out.Meshes
}

// BenchmarkCodec encodes the halo mock's blocks and decodes them again,
// per kept cell.
func BenchmarkCodec(b *testing.B) {
	meshes := haloMockBlocks(b)
	cells := 0
	enc := make([][]byte, len(meshes))
	for i, m := range meshes {
		cells += m.NumCells()
		var err error
		if enc[i], err = m.Encode(); err != nil {
			b.Fatal(err)
		}
	}
	perCell := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, m := range meshes {
				if _, err := m.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		}
		perCell(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, data := range enc {
				if _, err := meshio.DecodeBlockMesh(data); err != nil {
					b.Fatal(err)
				}
			}
		}
		perCell(b)
	})
}
