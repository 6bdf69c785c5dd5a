package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SendAlias enforces the comm package's ownership-transfer convention at
// every point-to-point send site. Payloads cross rank boundaries by
// reference, so the sender must (a) allocate the payload itself — a
// composite literal, make/append result, or a local variable built only
// from fresh allocations — and (b) never touch it again after the send.
// A payload that aliases a parameter, or is read or written after the
// send, is shared mutable memory between two ranks: exactly the
// shared-memory aliasing bug class PARAVT reports as dominant in
// parallel tessellation codes, and invisible to the race detector until
// both ranks actually touch the same word.
//
// Payloads of pure value types (no slices, maps, or pointers anywhere in
// the type) are exempt: they are copied through the channel. The comm
// package itself is exempt: its wrappers forward caller payloads by
// design, and the convention binds comm's clients.
var SendAlias = &Analyzer{
	Name: "sendalias",
	Doc:  "comm Send payloads must be freshly allocated and never reused after the send",
	Run:  runSendAlias,
}

// sendPayloadIndex maps point-to-point World methods to the argument
// index of their payload.
var sendPayloadIndex = map[string]int{
	"Send":        3, // Send(src, dst, tag, payload)
	"SendTimeout": 3, // SendTimeout(src, dst, tag, payload, timeout)
	"Sendrecv":    4, // Sendrecv(rank, dst, src, tag, payload)
}

func runSendAlias(p *Pass) {
	if p.Pkg.Path == commPath {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, fs := range funcScopes(p, file) {
			checkSendsInScope(p, fs)
		}
	}
}

// sendSite is one point-to-point send call found in a function scope.
type sendSite struct {
	call    *ast.CallExpr
	method  string
	payload ast.Expr
}

func checkSendsInScope(p *Pass, fs funcScope) {
	var sends []sendSite
	inspectShallow(fs.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		m := worldMethodOf(p.Pkg, call)
		idx, ok := sendPayloadIndex[m]
		if !ok || len(call.Args) <= idx {
			return true
		}
		sends = append(sends, sendSite{call: call, method: m, payload: call.Args[idx]})
		return true
	})
	for _, s := range sends {
		checkPayload(p, fs, s, sends)
	}
}

func checkPayload(p *Pass, fs funcScope, s sendSite, all []sendSite) {
	// Value-type payloads are copied through the channel: nothing to share.
	if t := p.TypeOf(s.payload); t != nil && !hasReference(t) {
		return
	}
	pl := ast.Unparen(s.payload)
	switch e := pl.(type) {
	case *ast.CompositeLit, *ast.UnaryExpr:
		checkEmbeddedParams(p, fs, s, pl)
	case *ast.CallExpr:
		// make/append/new results and unresolvable calls are fresh by
		// convention; a summarized callee is held to proof — a result that
		// may alias caller memory through an identity/wrapper helper is
		// shared mutable memory between ranks.
		checkCallPayload(p, fs, s, e)
	case *ast.Ident:
		if e.Name == "nil" {
			return
		}
		checkIdentPayload(p, fs, s, e)
	case *ast.IndexExpr:
		checkIndexPayload(p, fs, s, e, all)
	default:
		p.Reportf(s.call.Pos(),
			"comm %s payload must be freshly allocated in the sending function (got %s)",
			s.method, exprKind(pl))
	}
}

// checkCallPayload inspects a call-result payload through the callee's
// interprocedural summary: when the callee returns an alias of one of its
// arguments, the argument must itself be fresh-by-the-rules — a parameter
// or out-of-function value flowing through an identity helper into a send
// is the same bug as sending it directly.
func checkCallPayload(p *Pass, fs funcScope, s sendSite, call *ast.CallExpr) {
	callee, args := p.Prog.callTarget(p.Pkg, call, nil)
	if callee == nil {
		return
	}
	flows := p.Prog.Flows(callee)
	for i, arg := range args {
		if !flowAt(flows, i).ReturnsAlias {
			continue
		}
		root := rootIdent(arg)
		if root == nil {
			continue
		}
		obj := p.ObjectOf(root)
		if obj == nil {
			continue
		}
		if t := p.TypeOf(arg); t == nil || !hasReference(t) {
			continue
		}
		if fs.params[obj] {
			p.Reportf(s.call.Pos(),
				"comm %s payload is the result of %s, which returns an alias of its argument %s — a parameter; the receiver would alias the caller's memory",
				s.method, callee.Name(), root.Name)
		} else if !declaredWithin(obj, fs.body) {
			p.Reportf(s.call.Pos(),
				"comm %s payload is the result of %s, which returns an alias of %s, memory not allocated in the sending function",
				s.method, callee.Name(), root.Name)
		}
	}
}

// checkEmbeddedParams flags composite-literal payloads that smuggle a
// reference-typed parameter inside (Wrapper{Buf: callerSlice}).
func checkEmbeddedParams(p *Pass, fs funcScope, s sendSite, lit ast.Expr) {
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.ObjectOf(id)
		if obj == nil || !fs.params[obj] {
			return true
		}
		if t := obj.Type(); t != nil && hasReference(t) {
			p.Reportf(s.call.Pos(),
				"comm %s payload embeds parameter %s; the receiver would alias the caller's memory",
				s.method, id.Name)
			return false
		}
		return true
	})
}

// checkIdentPayload enforces the rules for a plain local-variable payload:
// declared in this function, every assignment fresh, no use after the send.
func checkIdentPayload(p *Pass, fs funcScope, s sendSite, id *ast.Ident) {
	obj := p.ObjectOf(id)
	if obj == nil {
		return
	}
	if fs.params[obj] {
		p.Reportf(s.call.Pos(),
			"comm %s payload %s is a function parameter; the ownership-transfer convention requires a freshly allocated buffer",
			s.method, id.Name)
		return
	}
	if !declaredWithin(obj, fs.body) {
		p.Reportf(s.call.Pos(),
			"comm %s payload %s is not allocated in the sending function",
			s.method, id.Name)
		return
	}
	checkFreshAssignments(p, fs, s, obj, id.Name)

	// Ownership leaves with the message: any later mention of the
	// variable reads or writes memory the receiver now owns.
	inspectShallow(fs.body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok || use.Pos() <= s.call.End() {
			return true
		}
		if p.ObjectOf(use) == obj {
			p.Reportf(s.call.Pos(),
				"comm %s payload %s is used again on line %d after the send relinquishes ownership",
				s.method, id.Name, p.Fset.Position(use.Pos()).Line)
			return false
		}
		return true
	})
}

// checkIndexPayload enforces the rules for an m[k] payload (the per-rank
// drain pattern): m local, every stored value fresh, and after the first
// send m may appear only as the payload of further sends.
func checkIndexPayload(p *Pass, fs funcScope, s sendSite, idx *ast.IndexExpr, all []sendSite) {
	root := rootIdent(idx.X)
	if root == nil {
		p.Reportf(s.call.Pos(), "comm %s payload must be freshly allocated in the sending function (got %s)",
			s.method, exprKind(idx.X))
		return
	}
	obj := p.ObjectOf(root)
	if obj == nil {
		return
	}
	if fs.params[obj] || !declaredWithin(obj, fs.body) {
		p.Reportf(s.call.Pos(),
			"comm %s payload %s[...] indexes memory not allocated in the sending function",
			s.method, root.Name)
		return
	}
	checkFreshAssignments(p, fs, s, obj, root.Name)

	// Sends draining the same container: their payload expressions are the
	// only allowed mentions of obj past the first send.
	firstEnd := token.Pos(0)
	var payloadSpans [][2]token.Pos
	for _, o := range all {
		oi, ok := ast.Unparen(o.payload).(*ast.IndexExpr)
		if !ok {
			continue
		}
		or := rootIdent(oi.X)
		if or == nil || p.ObjectOf(or) != obj {
			continue
		}
		if firstEnd == 0 || o.call.End() < firstEnd {
			firstEnd = o.call.End()
		}
		payloadSpans = append(payloadSpans, [2]token.Pos{o.payload.Pos(), o.payload.End()})
	}
	inspectShallow(fs.body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok || use.Pos() <= firstEnd || p.ObjectOf(use) != obj {
			return true
		}
		for _, sp := range payloadSpans {
			if use.Pos() >= sp[0] && use.Pos() < sp[1] {
				return true
			}
		}
		p.Reportf(s.call.Pos(),
			"comm %s payload container %s is read or written on line %d after its buffers were sent",
			s.method, root.Name, p.Fset.Position(use.Pos()).Line)
		return false
	})
}

// checkFreshAssignments verifies every assignment to obj in the scope
// yields freshly allocated memory (or derives from obj itself: growth and
// re-slicing patterns).
func checkFreshAssignments(p *Pass, fs funcScope, s sendSite, obj types.Object, name string) {
	inspectShallow(fs.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				target := lhs
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					target = ix.X // writes into m[k] transfer with the send too
				}
				r := rootIdent(target)
				if r == nil || p.ObjectOf(r) != obj {
					continue
				}
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				} else if len(st.Rhs) == 1 {
					rhs = st.Rhs[0] // multi-value call: fresh
				}
				if rhs != nil && !freshExpr(p, rhs, obj) {
					p.Reportf(s.call.Pos(),
						"comm %s payload %s aliases non-fresh memory assigned on line %d",
						s.method, name, p.Fset.Position(st.Pos()).Line)
				}
			}
		case *ast.ValueSpec:
			for i, vn := range st.Names {
				if p.ObjectOf(vn) != obj || i >= len(st.Values) {
					continue
				}
				if !freshExpr(p, st.Values[i], obj) {
					p.Reportf(s.call.Pos(),
						"comm %s payload %s aliases non-fresh memory assigned on line %d",
						s.method, name, p.Fset.Position(st.Pos()).Line)
				}
			}
		}
		return true
	})
}

// freshExpr reports whether e evaluates to freshly allocated memory (or
// derives from self, covering x = append(x, ...) growth and x = x[:n]
// re-slicing).
func freshExpr(p *Pass, e ast.Expr, self types.Object) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit:
		return true
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.UnaryExpr:
		return x.Op == token.AND && freshExpr(p, x.X, self)
	case *ast.SliceExpr:
		r := rootIdent(x.X)
		return r != nil && p.ObjectOf(r) == self
	case *ast.IndexExpr:
		r := rootIdent(x.X)
		return r != nil && p.ObjectOf(r) == self
	case *ast.CallExpr:
		if isBuiltin(p, x, "append") && len(x.Args) > 0 {
			if freshExpr(p, x.Args[0], self) {
				return true
			}
			r := rootIdent(x.Args[0])
			return r != nil && p.ObjectOf(r) == self
		}
		// A summarized callee is fresh only if every argument it may
		// return an alias of is itself fresh (or derives from self).
		if callee, args := p.Prog.callTarget(p.Pkg, x, nil); callee != nil {
			flows := p.Prog.Flows(callee)
			for i, arg := range args {
				if !flowAt(flows, i).ReturnsAlias {
					continue
				}
				if r := rootIdent(arg); r != nil && p.ObjectOf(r) == self {
					continue
				}
				if !freshExpr(p, arg, self) {
					return false
				}
			}
			return true
		}
		// make, new, conversions, and unresolvable calls: results are
		// fresh by this repo's convention (helpers return owned memory).
		return true
	}
	return false
}

func exprKind(e ast.Expr) string {
	switch e.(type) {
	case *ast.SelectorExpr:
		return "a field or package-level value"
	case *ast.StarExpr:
		return "a pointer dereference"
	default:
		return "a non-local expression"
	}
}
