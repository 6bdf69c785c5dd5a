package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// AbortErr enforces the failure model's matching discipline. The abort
// path wraps errors as it crosses layers (rank panic -> RankError ->
// AbortError -> session error), so structured errors and sentinels —
// AbortError, RankError, StallError, ErrWorldAborted, and any module
// type/variable following the Err*/*Error naming convention, decided from
// the object itself — must be matched with errors.Is and errors.As, which
// unwrap. A == comparison or a value type-switch matches only the
// outermost layer and silently stops working the moment anyone adds a
// wrapping layer; fmt.Errorf on an error without %w severs the chain so no
// errors.Is downstream can see through it.
//
// The Is methods of error types are exempt: they are the unwrap
// protocol's own plumbing and compare identity by design.
var AbortErr = &Analyzer{
	Name: "aborterr",
	Doc:  "structured errors must be matched via errors.Is/errors.As and wrapped with %w, never compared or type-switched directly",
	Run:  runAbortErr,
}

func runAbortErr(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if decl, ok := n.(*ast.FuncDecl); ok && isErrorIsMethod(p, decl) {
				return false
			}
			checkAbortErrNode(p, n)
			return true
		})
	}
}

// isErrorIsMethod reports whether decl is the Is(error) bool method of an
// error type: the one place identity comparison with sentinels is the
// protocol itself.
func isErrorIsMethod(p *Pass, decl *ast.FuncDecl) bool {
	if decl.Name.Name != "Is" || decl.Recv == nil || len(decl.Recv.List) != 1 {
		return false
	}
	recv := p.TypeOf(decl.Recv.List[0].Type)
	return implementsError(recv)
}

// checkAbortErrNode reports n if it compares, switches on, asserts or
// re-wraps a module error in a way that stops unwrapping.
func checkAbortErrNode(p *Pass, n ast.Node) {
	switch st := n.(type) {
	case *ast.BinaryExpr:
		if st.Op != token.EQL && st.Op != token.NEQ {
			return
		}
		for _, side := range []ast.Expr{st.X, st.Y} {
			if name, ok := sentinelUse(p, side); ok {
				p.Reportf(st.Pos(),
					"comparing %s with %s misses wrapped errors; use errors.Is",
					name, st.Op)
				break
			}
		}
	case *ast.SwitchStmt:
		// switch err { case ErrWorldAborted: ... }
		if st.Tag == nil || !implementsError(p.TypeOf(st.Tag)) {
			return
		}
		for _, clause := range st.Body.List {
			cc := clause.(*ast.CaseClause)
			for _, e := range cc.List {
				if name, ok := sentinelUse(p, e); ok {
					p.Reportf(e.Pos(),
						"switching on %s by value misses wrapped errors; use errors.Is",
						name)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		checkErrTypeSwitch(p, st)
	case *ast.TypeAssertExpr:
		if st.Type == nil {
			return // x.(type) inside a switch, handled above
		}
		if !implementsError(p.TypeOf(st.X)) {
			return
		}
		if name, ok := moduleErrType(p, st.Type); ok {
			p.Reportf(st.Pos(),
				"type-asserting to %s misses wrapped errors; use errors.As",
				name)
		}
	case *ast.CallExpr:
		checkErrorfWrap(p, st)
	}
}

// checkErrTypeSwitch flags `switch e := err.(type)` statements whose
// operand is an error and whose cases include module error types.
func checkErrTypeSwitch(p *Pass, st *ast.TypeSwitchStmt) {
	var operand ast.Expr
	switch a := st.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(a.X).(*ast.TypeAssertExpr); ok {
			operand = ta.X
		}
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
				operand = ta.X
			}
		}
	}
	if operand == nil || !implementsError(p.TypeOf(operand)) {
		return
	}
	for _, clause := range st.Body.List {
		cc := clause.(*ast.CaseClause)
		for _, e := range cc.List {
			if name, ok := moduleErrType(p, e); ok {
				p.Reportf(e.Pos(),
					"type-switching on %s misses wrapped errors; use errors.As",
					name)
			}
		}
	}
}

// sentinelUse reports whether e denotes a module error sentinel (a
// package-level Err* variable of error type, declared in a module
// package), returning its name.
func sentinelUse(p *Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	v, ok := p.ObjectOf(id).(*types.Var)
	if !ok || !inModule(p, v) || v.Parent() != v.Pkg().Scope() ||
		!strings.HasPrefix(v.Name(), "Err") || !implementsError(v.Type()) {
		return "", false
	}
	return id.Name, true
}

// moduleErrType reports whether the type expression e names a module
// structured error type (a named *Error type implementing error, by value
// or by pointer, declared in a module package).
func moduleErrType(p *Pass, e ast.Expr) (string, bool) {
	n := namedType(p.TypeOf(e))
	if n == nil || !inModule(p, n.Obj()) || !strings.HasSuffix(n.Obj().Name(), "Error") ||
		!(implementsError(n) || implementsError(types.NewPointer(n))) {
		return "", false
	}
	return n.Obj().Name(), true
}

// inModule reports whether obj is declared in a package of the module
// being analyzed, so the standard library's io.EOF or *PathError, which
// callers conventionally compare, stay out of scope.
func inModule(p *Pass, obj types.Object) bool {
	if obj.Pkg() == nil {
		return false
	}
	path, mod := obj.Pkg().Path(), p.Pkg.Module
	return path == mod || strings.HasPrefix(path, mod+"/")
}

// checkErrorfWrap flags fmt.Errorf calls that format an error-typed
// argument without a %w verb: the new error hides its cause from
// errors.Is/errors.As downstream.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	obj := p.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if t := p.TypeOf(arg); t != nil && isErrorValue(t) {
			p.Reportf(call.Pos(),
				"fmt.Errorf formats an error without %%w; the cause becomes unreachable to errors.Is/errors.As (wrap with %%w)")
			return
		}
	}
}

// isErrorValue reports whether t is the error interface or a concrete
// type implementing it (excluding nil-like untyped values).
func isErrorValue(t types.Type) bool {
	if _, isBasic := t.Underlying().(*types.Basic); isBasic {
		return false
	}
	return isErrorType(t) || implementsError(t)
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
