// Package lint is a static-analysis framework for this repository, built
// entirely on the standard library's go/parser and go/types (no x/tools
// dependency). It exists to mechanize the invariants the paper's
// correctness story rests on — distributed-memory rank isolation,
// bit-identical deterministic output, and a failure model whose errors
// unwrap — where neither the compiler nor a test sees new code break them.
//
// The framework has three parts: a Loader that parses and type-checks
// every package of the module from source (stdlib imports are resolved by
// the compiler's source importer), a small Analyzer/Pass API mirroring
// the shape of go/analysis, and a Run driver that returns position-sorted
// diagnostics. The three repo-specific analyzers live alongside the
// framework — aborterr, maporder and sendalias — each checking one
// function at a time and each guarding an invariant whose planted defect
// no test catches (see their Doc strings and the table in DESIGN.md's
// "Static invariants" section). There are no suppression directives: a
// finding is fixed, or the analyzer is wrong.
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

// Pass carries one package through one analyzer.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

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
