package meshio

import (
	"bufio"
	"fmt"
	"io"
)

// WriteVTK exports block meshes as a legacy-VTK polydata file (ASCII) with
// one polygon per cell face and per-polygon scalars for cell volume and
// block rank — loadable by ParaView and similar tools, standing in for the
// paper's cosmology-tools plugin rendering path.
func WriteVTK(w io.Writer, meshes []*BlockMesh) error {
	bw := bufio.NewWriter(w)

	totalVerts := 0
	totalPolys := 0
	totalIdx := 0
	for _, m := range meshes {
		totalVerts += len(m.Verts)
		totalPolys += len(m.Neighbors)
		totalIdx += len(m.LoopVerts)
	}

	fmt.Fprintln(bw, "# vtk DataFile Version 3.0")
	fmt.Fprintln(bw, "tess Voronoi tessellation")
	fmt.Fprintln(bw, "ASCII")
	fmt.Fprintln(bw, "DATASET POLYDATA")
	fmt.Fprintf(bw, "POINTS %d double\n", totalVerts)
	for _, m := range meshes {
		for _, v := range m.Verts {
			fmt.Fprintf(bw, "%g %g %g\n", v.X, v.Y, v.Z)
		}
	}
	fmt.Fprintf(bw, "POLYGONS %d %d\n", totalPolys, totalPolys+totalIdx)
	base := 0
	for _, m := range meshes {
		for f := range m.Neighbors {
			loop := m.Loop(f)
			fmt.Fprintf(bw, "%d", len(loop))
			for _, vi := range loop {
				fmt.Fprintf(bw, " %d", base+int(vi))
			}
			fmt.Fprintln(bw)
		}
		base += len(m.Verts)
	}

	fmt.Fprintf(bw, "CELL_DATA %d\n", totalPolys)
	fmt.Fprintln(bw, "SCALARS cell_volume double 1")
	fmt.Fprintln(bw, "LOOKUP_TABLE default")
	for _, m := range meshes {
		for ci := range m.FaceEnds {
			lo, hi := m.Faces(ci)
			for range hi - lo {
				fmt.Fprintf(bw, "%g\n", m.Volumes[ci])
			}
		}
	}
	fmt.Fprintln(bw, "SCALARS block int 1")
	fmt.Fprintln(bw, "LOOKUP_TABLE default")
	for bi, m := range meshes {
		for range m.Neighbors {
			fmt.Fprintf(bw, "%d\n", bi)
		}
	}
	return bw.Flush()
}
