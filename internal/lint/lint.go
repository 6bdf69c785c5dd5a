// Package lint is a static-analysis framework for this repository, built
// entirely on the standard library's go/parser and go/types (no x/tools
// dependency). It exists to mechanize the invariants the paper's
// correctness story rests on — distributed-memory rank isolation,
// bit-identical deterministic output, and allocation-free hot paths —
// where doc comments and tests cannot see new code.
//
// The framework has three parts: a Loader that parses and type-checks
// every package of the module from source (stdlib imports are resolved by
// the compiler's source importer), a small Analyzer/Pass API mirroring
// the shape of go/analysis, and a Run driver that applies suppression
// directives and returns position-sorted diagnostics. The six
// repo-specific analyzers live alongside the framework — aborterr,
// donesel, hotalloc, loanretain, maporder and sendalias — each guarding an
// invariant that no compiler error or test holds (see their Doc strings
// and the table in DESIGN.md's "Static invariants" section). Two of them,
// loanretain and sendalias, read an interprocedural Program whose one
// taint engine (Program.trace, summary.go) computes every escape fact.
//
// Diagnostics may be suppressed with a directive comment on the same
// line or the line directly above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding, located by full position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces.
	Doc string
	Run func(*Pass)
}

// Pass carries one package through one analyzer. Prog is the shared
// interprocedural layer built once per Run over every loaded package;
// analyzers consult it for call-graph summaries and module-wide marker
// indexes.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Prog *Program

	analyzer string
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (definition or use),
// or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Defs[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Uses[id]
}
