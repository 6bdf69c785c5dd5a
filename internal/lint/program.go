package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Program is the interprocedural layer shared by every analyzer of one
// Run: the set of loaded packages, a call graph keyed by *types.Func over
// every module function with a body, per-function escape/retain/send
// summaries (see Summary), and the module-wide directive-marker indexes
// (//tess:loaned functions, //tess:abortable packages, module error
// sentinels and structured error types).
//
// Packages outside the built Program — the standard library, and module
// packages not loaded into this Run — contribute no summaries; calls into
// them fall back to the repository's ownership convention (results are
// owned, parameters are neither retained nor sent). The zero-findings
// gate and the CLI default therefore build the Program over the whole
// module, so every helper a value can escape through is summarized.
type Program struct {
	byPath map[string]*Package

	// order lists every module function with a body, in deterministic
	// (package, file, declaration) order; info locates each one.
	order []*types.Func
	info  map[*types.Func]*funcInfo

	summaries map[*types.Func]*Summary

	// loaned marks functions whose doc carries //tess:loaned: their
	// results are borrowed storage, overwritten by the provider later.
	loaned map[*types.Func]bool

	// sentinels are package-level error-typed variables named Err*;
	// errTypes are named types ending in "Error" that implement error.
	// Both feed the aborterr analyzer.
	sentinels map[types.Object]bool
	errTypes  map[types.Object]bool
}

// funcInfo locates one summarized function's syntax.
type funcInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// BuildProgram indexes pkgs and computes interprocedural summaries to a
// fixpoint. The packages become the Program's analysis universe: facts
// about functions outside it default to the ownership convention.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		byPath:    map[string]*Package{},
		info:      map[*types.Func]*funcInfo{},
		summaries: map[*types.Func]*Summary{},
		loaned:    map[*types.Func]bool{},
		sentinels: map[types.Object]bool{},
		errTypes:  map[types.Object]bool{},
	}
	for _, pkg := range pkgs {
		if _, ok := prog.byPath[pkg.Path]; ok {
			continue
		}
		prog.byPath[pkg.Path] = pkg
		prog.indexPackage(pkg)
	}
	prog.computeSummaries()
	return prog
}

// indexPackage records pkg's functions, markers, and error vocabulary.
func (prog *Program) indexPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			prog.order = append(prog.order, fn)
			prog.info[fn] = &funcInfo{pkg: pkg, decl: d}
			if docHasMarker(d.Doc, loanedMarker) {
				prog.loaned[fn] = true
			}
		}
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		switch o := obj.(type) {
		case *types.Var:
			if strings.HasPrefix(name, "Err") && implementsError(o.Type()) {
				prog.sentinels[o] = true
			}
		case *types.TypeName:
			if strings.HasSuffix(name, "Error") &&
				(implementsError(o.Type()) || implementsError(types.NewPointer(o.Type()))) {
				prog.errTypes[o] = true
			}
		}
	}
}

// Markers recognized by the framework. Each is a directive comment placed
// in the doc of the declaration it governs.
const (
	// loanedMarker marks a function whose results are loans: storage owned
	// and later overwritten by the provider (Session.Step's Output).
	loanedMarker = "//tess:loaned"
	// abortableMarker opts a package into the donesel analyzer: its
	// blocking channel operations must remain abortable.
	abortableMarker = "//tess:abortable"
)

func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// pkgHasMarker reports whether any comment of the package carries marker
// (used for package-granularity opt-ins like //tess:abortable).
func pkgHasMarker(pkg *Package, marker string) bool {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, marker) {
					return true
				}
			}
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// isErrorType reports whether t is the error interface itself.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t.Underlying(), errorIface)
}

// Summary returns fn's interprocedural summary, or nil when fn lies
// outside the Program (callers then apply the ownership convention).
func (prog *Program) Summary(fn *types.Func) *Summary {
	if prog == nil || fn == nil {
		return nil
	}
	return prog.summaries[fn]
}

// Loaned reports whether fn's doc marks its results //tess:loaned.
func (prog *Program) Loaned(fn *types.Func) bool {
	return prog != nil && prog.loaned[fn]
}

// boundFunc is a function value a local variable is known to hold: the
// callee plus, for a method value (f := x.M), the receiver expression
// bound at creation. A variable assigned more than one function resolves
// to nothing (invalid entry with fn == nil).
type boundFunc struct {
	fn   *types.Func
	recv ast.Expr
}

// funcBindings scans body for locals holding exactly one resolvable
// function value, so calls through them gain call-graph edges (the
// method-value edges the summary tests pin down).
func funcBindings(pkg *Package, body *ast.BlockStmt) map[types.Object]boundFunc {
	bind := map[types.Object]boundFunc{}
	record := func(name *ast.Ident, rhs ast.Expr) {
		obj := pkg.Info.Defs[name]
		if obj == nil {
			obj = pkg.Info.Uses[name]
		}
		if obj == nil {
			return
		}
		bf, ok := funcValueOf(pkg, rhs)
		if !ok || bf.fn == nil {
			bind[obj] = boundFunc{} // unresolvable or reassigned: poison
			return
		}
		if prev, seen := bind[obj]; seen && prev.fn != bf.fn {
			bind[obj] = boundFunc{}
			return
		}
		bind[obj] = bf
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && isFuncTyped(pkg, id) {
					record(id, st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) && isFuncTyped(pkg, name) {
					record(name, st.Values[i])
				}
			}
		}
		return true
	})
	return bind
}

func isFuncTyped(pkg *Package, id *ast.Ident) bool {
	obj := pkg.Info.Defs[id]
	if obj == nil {
		obj = pkg.Info.Uses[id]
	}
	if obj == nil || obj.Type() == nil {
		return false
	}
	_, ok := obj.Type().Underlying().(*types.Signature)
	return ok
}

// funcValueOf resolves an expression to a function value: a plain
// function identifier, a qualified function, or a method value with its
// receiver.
func funcValueOf(pkg *Package, e ast.Expr) (boundFunc, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := objOf(pkg, x).(*types.Func); ok {
			return boundFunc{fn: fn}, true
		}
	case *ast.SelectorExpr:
		fn, ok := objOf(pkg, x.Sel).(*types.Func)
		if !ok {
			return boundFunc{}, false
		}
		if _, isMethod := pkg.Info.Selections[x]; isMethod {
			return boundFunc{fn: fn, recv: x.X}, true
		}
		return boundFunc{fn: fn}, true // qualified package function
	}
	return boundFunc{}, false
}

func objOf(pkg *Package, id *ast.Ident) types.Object {
	if o := pkg.Info.Defs[id]; o != nil {
		return o
	}
	return pkg.Info.Uses[id]
}

// callTarget resolves a call expression to a summarized module function
// and the caller-side expression list aligned with the callee's Params
// (receiver expression first for method calls). bind supplies
// function-value bindings for calls through local variables; nil is
// allowed. Unresolvable calls — dynamic values, stdlib, packages outside
// the Program — return nil.
func (prog *Program) callTarget(pkg *Package, call *ast.CallExpr, bind map[types.Object]boundFunc) (*types.Func, []ast.Expr) {
	if prog == nil {
		return nil, nil
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: F[T](...) / x.M[T](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var fn *types.Func
	var recv ast.Expr
	switch f := fun.(type) {
	case *ast.Ident:
		switch o := objOf(pkg, f).(type) {
		case *types.Func:
			fn = o
		default:
			if bind != nil {
				if bf, ok := bind[objOf(pkg, f)]; ok && bf.fn != nil {
					fn, recv = bf.fn, bf.recv
				}
			}
		}
	case *ast.SelectorExpr:
		if o, ok := objOf(pkg, f.Sel).(*types.Func); ok {
			fn = o
			if _, isMethod := pkg.Info.Selections[f]; isMethod {
				recv = f.X
			}
		}
	}
	if fn == nil {
		return nil, nil
	}
	if _, known := prog.info[fn]; !known {
		return nil, nil
	}
	args := call.Args
	if recv != nil {
		args = append([]ast.Expr{recv}, args...)
	}
	return fn, args
}
