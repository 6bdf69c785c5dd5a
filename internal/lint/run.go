package lint

import (
	"sort"
)

// RunProgram applies every analyzer to every target package, drops
// findings covered by //lint:ignore directives, and returns the rest sorted
// by position. prog may span more packages than targets, so escape facts
// flow through helpers in packages that are only context, while findings
// are reported only for the target packages.
func RunProgram(prog *Program, targets []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range targets {
		var raw []Diagnostic
		ignores := collectIgnores(pkg, &all) // malformed directives report directly
		for _, a := range analyzers {
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, Prog: prog, analyzer: a.Name, sink: &raw}
			a.Run(pass)
		}
		for _, d := range raw {
			if !suppressed(d, ignores) {
				all = append(all, d)
			}
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
