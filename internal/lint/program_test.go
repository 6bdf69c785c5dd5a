package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// syntheticPkg type-checks a single self-contained source string into a
// Package, bypassing the module loader: summary-layer tests stay fast and
// independent of the repository's own code.
func syntheticPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "synth.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	tpkg, err := conf.Check("synth", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "synth", Files: []*ast.File{f}, Types: tpkg, Info: info, Fset: fset}
}

// flowsOf builds a Program over src and returns the named function's
// parameter flows.
func flowsOf(t *testing.T, prog *Program, name string) []ParamFlow {
	t.Helper()
	for _, fn := range prog.order {
		if fn.Name() == name {
			return prog.summaries[fn].Flows
		}
	}
	t.Fatalf("no function %q in program", name)
	return nil
}

func TestSummaryReturnsAlias(t *testing.T) {
	prog := BuildProgram([]*Package{syntheticPkg(t, `
package synth

type pair struct{ buf []int }

func ident(v []int) []int { return v }

func wrapped(v []int) pair { return pair{buf: v} }

func resliced(v []int) []int { return v[1:] }

func twoHops(v []int) []int { return ident(v) }

func copied(v []int) []int {
	out := make([]int, len(v))
	copy(out, v)
	return out
}

func scalar(v []int) int { return v[0] }
`)})
	for _, name := range []string{"ident", "wrapped", "resliced", "twoHops"} {
		if !flowsOf(t, prog, name)[0].ReturnsAlias {
			t.Errorf("%s: ReturnsAlias = false, want true", name)
		}
	}
	for _, name := range []string{"copied", "scalar"} {
		if flowsOf(t, prog, name)[0].ReturnsAlias {
			t.Errorf("%s: ReturnsAlias = true, want false", name)
		}
	}
}

func TestSummaryRetained(t *testing.T) {
	prog := BuildProgram([]*Package{syntheticPkg(t, `
package synth

type holder struct{ kept []int }

var sink []int
var total int

func toGlobal(v []int) { sink = v }

func toField(h *holder, v []int) { h.kept = v }

func toChannel(ch chan []int, v []int) { ch <- v }

func viaHelper(v []int) { toGlobal(v) }

func viaAppend(v []int) { sink = append(sink, v...) }

func scalarStore(v []int) { total = v[0] }

func localOnly(v []int) int {
	tmp := v
	return len(tmp)
}
`)})
	retains := func(name string, i int) bool { return flowsOf(t, prog, name)[i].Retained }
	if !retains("toGlobal", 0) {
		t.Error("toGlobal: parameter not Retained")
	}
	if !retains("toField", 1) {
		t.Error("toField: stored parameter not Retained")
	}
	if retains("toField", 0) {
		t.Error("toField: the holder itself marked Retained")
	}
	if !retains("toChannel", 1) {
		t.Error("toChannel: sent parameter not Retained")
	}
	if !retains("viaHelper", 0) {
		t.Error("viaHelper: transitive retention through toGlobal missed")
	}
	if !retains("viaAppend", 0) {
		t.Error("viaAppend: retention through append into a global missed")
	}
	if retains("scalarStore", 0) {
		t.Error("scalarStore: value-typed read marked Retained")
	}
	if retains("localOnly", 0) {
		t.Error("localOnly: purely local alias marked Retained")
	}
}

func TestSummaryRecursion(t *testing.T) {
	prog := BuildProgram([]*Package{syntheticPkg(t, `
package synth

var sink []int

func direct(v []int, n int) []int {
	if n == 0 {
		return v
	}
	return direct(v, n-1)
}

func pingRet(v []int, n int) []int {
	if n == 0 {
		return v
	}
	return pongRet(v, n-1)
}

func pongRet(v []int, n int) []int { return pingRet(v, n) }

func pingStore(v []int, n int) {
	if n == 0 {
		sink = v
		return
	}
	pongStore(v, n-1)
}

func pongStore(v []int, n int) { pingStore(v, n) }
`)})
	for _, name := range []string{"direct", "pingRet", "pongRet"} {
		if !flowsOf(t, prog, name)[0].ReturnsAlias {
			t.Errorf("%s: ReturnsAlias not propagated through recursion", name)
		}
	}
	for _, name := range []string{"pingStore", "pongStore"} {
		if !flowsOf(t, prog, name)[0].Retained {
			t.Errorf("%s: Retained not propagated through mutual recursion", name)
		}
	}
}

func TestSummaryMethodValueEdge(t *testing.T) {
	prog := BuildProgram([]*Package{syntheticPkg(t, `
package synth

type box struct{ held []int }

func (b *box) keep(v []int) { b.held = v }

func (b *box) drop(v []int) {}

func viaMethodValue(b *box, v []int) {
	f := b.keep
	f(v)
}

func viaHarmless(b *box, v []int) {
	f := b.drop
	f(v)
}

func reassigned(b *box, v []int) {
	f := b.drop
	f = b.keep
	f(v)
	_ = f
}
`)})
	if f := flowsOf(t, prog, "keep"); !f[1].Retained {
		t.Fatal("keep: receiver store not Retained (method summary broken)")
	}
	if !flowsOf(t, prog, "viaMethodValue")[1].Retained {
		t.Error("viaMethodValue: retention through a bound method value missed")
	}
	if flowsOf(t, prog, "viaHarmless")[1].Retained {
		t.Error("viaHarmless: harmless method value marked Retained")
	}
	// A variable bound to two different methods is poisoned: the call
	// resolves to nothing, and by the ownership convention nothing
	// escapes. The test pins the poisoning (no panic, no cross-binding).
	if flowsOf(t, prog, "reassigned")[1].Retained {
		t.Error("reassigned: poisoned binding still produced an edge")
	}
}

func TestSummaryVariadicFolding(t *testing.T) {
	prog := BuildProgram([]*Package{syntheticPkg(t, `
package synth

var sink [][]int

func keepAll(vs ...[]int) { sink = vs }

func viaVariadic(a, b []int) { keepAll(a, b) }
`)})
	f := flowsOf(t, prog, "viaVariadic")
	if !f[0].Retained || !f[1].Retained {
		t.Errorf("viaVariadic: variadic folding lost retention: %+v", f)
	}
}

func TestSummaryGenericInstantiation(t *testing.T) {
	prog := BuildProgram([]*Package{syntheticPkg(t, `
package synth

func gid[T any](v T) T { return v }

func viaInferred(v []int) []int { return gid(v) }

func viaExplicit(v []int) []int { return gid[[]int](v) }
`)})
	if !flowsOf(t, prog, "gid")[0].ReturnsAlias {
		t.Fatal("gid: generic identity not summarized")
	}
	for _, name := range []string{"viaInferred", "viaExplicit"} {
		if !flowsOf(t, prog, name)[0].ReturnsAlias {
			t.Errorf("%s: alias through generic instantiation missed", name)
		}
	}
}

// TestProgramLoanedIndex checks the //tess:loaned marker index feeding
// loanretain.
func TestProgramLoanedIndex(t *testing.T) {
	pkg := syntheticPkg(t, `
package synth

type out struct{ c []int }

type sess struct{ buf out }

// Step loans its result.
//
//tess:loaned
func (s *sess) Step() *out { return &s.buf }

func plain(s *sess) *out { return &s.buf }
`)
	prog := BuildProgram([]*Package{pkg})
	var step, plain *types.Func
	for _, fn := range prog.order {
		switch fn.Name() {
		case "Step":
			step = fn
		case "plain":
			plain = fn
		}
	}
	if !prog.Loaned(step) {
		t.Error("marked Step not in the loaned index")
	}
	if prog.Loaned(plain) {
		t.Error("unmarked function in the loaned index")
	}
}
