package lint

import (
	"sort"
)

// Run applies every analyzer to every package and returns the findings
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Fset: pkg.Fset, Pkg: pkg, analyzer: a.Name, sink: &all})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}
