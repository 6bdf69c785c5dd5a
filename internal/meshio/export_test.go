package meshio

// WeldProbes reports the weld-table lookups of the Merger's last Merge, for
// the external tests, which can build the tessellations it is pinned on
// (package core imports meshio, so an in-package test cannot).
func (mg *Merger) WeldProbes() int { return mg.probes }
