package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// commPath is the import path of the message-passing substrate whose
// ownership-transfer convention sendalias and maporder police.
const commPath = "repro/internal/comm"

// rootIdent walks selector, index, slice, star, paren, and address-of
// chains down to the base identifier, or nil when the base is not a plain
// identifier (a call result, a literal, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// namedType unwraps pointers and aliases and returns the named type of t,
// or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isCommWorld reports whether t is comm.World or *comm.World.
func isCommWorld(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Name() == "World" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == commPath
}

// sendPayload returns the payload argument when call is the comm
// point-to-point send, World.Send(src, dst, tag, payload), and nil
// otherwise.
func sendPayload(pkg *Package, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" || len(call.Args) != 4 || !isCommWorld(pkg.Info.TypeOf(sel.X)) {
		return nil
	}
	return call.Args[3]
}

// commCall reports whether call resolves to any function or method of the
// comm package (collectives included).
func commCall(p *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if obj := p.ObjectOf(fun.Sel); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == commPath {
			return true
		}
	case *ast.Ident:
		if obj := p.ObjectOf(fun); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == commPath {
			return true
		}
	}
	return false
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.ObjectOf(id).(*types.Builtin)
	return ok
}

// hasReference reports whether values of t carry references to shared
// mutable memory: slices, maps, channels, pointers, functions, and
// interfaces count; structs and arrays count when any element does.
// Strings are immutable and do not count.
func hasReference(t types.Type) bool {
	return hasReferenceDepth(t, 0)
}

func hasReferenceDepth(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return true // unknown or deeply recursive: assume referenced
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasReferenceDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return hasReferenceDepth(u.Elem(), depth+1)
	default:
		// Slice, Map, Chan, Pointer, Signature, Interface, Tuple.
		return true
	}
}

// declaredWithin reports whether obj's declaration lies inside the span
// of node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && node != nil && obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}
