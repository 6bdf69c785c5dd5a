package lint

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{AbortErr, MapOrder, SendAlias}
}
