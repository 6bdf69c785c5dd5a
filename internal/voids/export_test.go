package voids

import "repro/internal/meshio"

// CellsFromMesh flattens one block mesh into cell records numbered as
// block, for the external tests.
func CellsFromMesh(m *meshio.BlockMesh, block int) []CellRecord {
	return cellsOf([]*meshio.BlockMesh{m}, block)
}
