package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SendAlias enforces the comm package's ownership-transfer convention at
// every point-to-point send site. Payloads cross rank boundaries by
// reference, so the sender must hand over memory nobody else can see. A
// payload that aliases caller-visible or retained memory is shared
// mutable memory between two ranks: the shared-memory aliasing bug class
// PARAVT reports as dominant in parallel tessellation codes. It is
// invisible to the race detector while the two ranks touch the shared
// words at different times — a per-destination buffer reused on the next
// step, say — and invisible to byte oracles while the bytes agree.
//
// The check reads one function at a time. A payload is fresh when it is
// nil, a make, or a composite literal whose elements are fresh or hold no
// references, or when it is a local of the sending function and every
// assignment to that local is one of those or an append onto itself of
// values with no references. Anything else — a parameter, a receiver
// field, a slice of something else, a call result — is flagged. Payloads
// of pure value types (no slices, maps, or pointers anywhere in the type)
// are exempt: they are copied through the channel. The comm package
// itself is exempt: its collectives forward caller payloads by design, and
// the convention binds comm's clients.
//
// Touching a payload after the send is left to the race detector, which
// reports it on the first run that exercises the send.
var SendAlias = &Analyzer{
	Name: "sendalias",
	Doc:  "comm Send payloads must be freshly allocated by the sending function",
	Run:  runSendAlias,
}

func runSendAlias(p *Pass) {
	if p.Pkg.Path == commPath {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				payload := sendPayload(p.Pkg, call)
				if payload == nil {
					return true
				}
				f := freshness{p: p, body: decl.Body, seen: map[types.Object]bool{}}
				if why := f.stale(payload); why != "" {
					p.Reportf(call.Pos(), "comm Send payload %s; send memory the sending function just allocated", why)
				}
				return true
			})
		}
	}
}

// freshness decides, within one function body, whether an expression is
// memory that function allocated and nobody else can reach.
type freshness struct {
	p    *Pass
	body *ast.BlockStmt
	seen map[types.Object]bool // locals already being checked
}

// stale returns why e is not fresh, or "" when it is.
func (f *freshness) stale(e ast.Expr) string {
	e = ast.Unparen(e)
	if t := f.p.TypeOf(e); t != nil && !hasReference(t) {
		return "" // copied by value; untyped nil lands here too
	}
	switch x := e.(type) {
	case *ast.Ident:
		return f.staleLocal(x)
	case *ast.CallExpr:
		if isBuiltin(f.p, x, "make") {
			return ""
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if why := f.stale(elt); why != "" {
				return why
			}
		}
		return ""
	case *ast.UnaryExpr:
		if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
			return f.stale(lit)
		}
	}
	return types.ExprString(e) + " is not a local of the sending function"
}

// staleLocal checks every assignment to the variable id names: it must be
// a local of the function whose values are all fresh.
func (f *freshness) staleLocal(id *ast.Ident) string {
	v, ok := f.p.ObjectOf(id).(*types.Var)
	if !ok || !declaredWithin(v, f.body) {
		return id.Name + " is not a local of the sending function"
	}
	if f.seen[v] {
		return "" // already being checked further up
	}
	f.seen[v] = true
	line := func(n ast.Node) int { return f.p.Fset.Position(n.Pos()).Line }
	why := ""
	ast.Inspect(f.body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if l, ok := ast.Unparen(lhs).(*ast.Ident); !ok || f.p.ObjectOf(l) != v {
					continue
				}
				if len(st.Rhs) != len(st.Lhs) {
					why = fmt.Sprintf("%s is assigned a call's result on line %d", id.Name, line(st))
				} else if f.staleValue(v, st.Rhs[i]) {
					why = fmt.Sprintf("%s is assigned %s on line %d", id.Name, types.ExprString(st.Rhs[i]), line(st))
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				switch {
				case f.p.ObjectOf(name) != v || len(st.Values) == 0:
				case len(st.Values) != len(st.Names):
					why = fmt.Sprintf("%s is assigned a call's result on line %d", id.Name, line(st))
				case f.staleValue(v, st.Values[i]):
					why = fmt.Sprintf("%s is assigned %s on line %d", id.Name, types.ExprString(st.Values[i]), line(st))
				}
			}
		case *ast.FuncLit:
			if declaredWithin(v, st.Type) {
				why = id.Name + " is a parameter of a function literal"
			}
		case *ast.RangeStmt:
			for _, b := range []ast.Expr{st.Key, st.Value} {
				if b, ok := b.(*ast.Ident); ok && f.p.ObjectOf(b) == v {
					why = fmt.Sprintf("%s is bound by the range on line %d", id.Name, line(st))
				}
			}
		}
		return true
	})
	return why
}

// staleValue reports whether assigning rhs to the local v could make v
// reach memory the function did not allocate: rhs must be fresh, or an
// append onto v itself of elements with no references.
func (f *freshness) staleValue(v *types.Var, rhs ast.Expr) bool {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(f.p, call, "append") && len(call.Args) > 0 {
		if dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && f.p.ObjectOf(dst) == v {
			s, ok := v.Type().Underlying().(*types.Slice)
			return !ok || hasReference(s.Elem())
		}
	}
	return f.stale(rhs) != ""
}
