package lint

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AbortErr, DoneSel, HotAlloc, LoanRetain, MapOrder, SendAlias,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
