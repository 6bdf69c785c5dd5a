package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// SendAlias enforces the comm package's ownership-transfer convention at
// every point-to-point send site. Payloads cross rank boundaries by
// reference, so the sender must (a) hand over memory nobody else can see —
// nothing reachable from a parameter or the receiver, and no //tess:loaned
// result — and (b) never touch it again after the send. A payload that
// aliases caller-visible memory, or is read or written after the send, is
// shared mutable memory between two ranks: exactly the shared-memory
// aliasing bug class PARAVT reports as dominant in parallel tessellation
// codes, and invisible to the race detector until both ranks actually
// touch the same word.
//
// (a) is a predicate on the shared taint engine (Program.trace): the
// payload's source mask must be empty, so an alias that arrives through a
// local, a container, a composite literal or an identity helper is seen
// the way loanretain sees a loan. (b) is positional: no later mention of
// the payload variable. Payloads of pure value types (no slices, maps, or
// pointers anywhere in the type) are exempt: they are copied through the
// channel. The comm package itself is exempt: its collectives forward
// caller payloads by design, and the convention binds comm's clients.
var SendAlias = &Analyzer{
	Name: "sendalias",
	Doc:  "comm Send payloads must be freshly allocated and never reused after the send",
	Run:  runSendAlias,
}

func runSendAlias(p *Pass) {
	if p.Pkg.Path == commPath {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				checkSends(p, decl)
			}
		}
	}
}

func checkSends(p *Pass, decl *ast.FuncDecl) {
	var sends []*ast.CallExpr
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && sendPayload(p.Pkg, call) != nil {
			sends = append(sends, call)
		}
		return true
	})
	if len(sends) == 0 {
		return
	}
	sc := p.Prog.trace(p.Pkg, decl, func(escape) {})
	for _, call := range sends {
		payload := ast.Unparen(sendPayload(p.Pkg, call))
		// Value-type payloads are copied through the channel: nothing to share.
		if t := p.TypeOf(payload); t != nil && !hasReference(t) {
			continue
		}
		if sc.mask(payload) != 0 {
			p.Reportf(call.Pos(), "comm Send payload %s", notFresh(p, sc, decl, payload))
			continue
		}
		checkUseAfterSend(p, decl, call, payload, sends)
	}
}

// notFresh phrases, by the payload's form, why a payload with a non-empty
// mask is not the sender's to give away.
func notFresh(p *Pass, sc *summaryCtx, decl *ast.FuncDecl, payload ast.Expr) string {
	isParam := func(id *ast.Ident) bool { return slices.Contains(sc.params, p.ObjectOf(id)) }
	switch e := payload.(type) {
	case *ast.Ident:
		if isParam(e) {
			return e.Name + " is a function parameter; the ownership-transfer convention requires a freshly allocated buffer"
		}
		return fmt.Sprintf("%s aliases non-fresh memory assigned on line %d",
			e.Name, p.Fset.Position(sc.taintedAt(decl.Body, p.ObjectOf(e))).Line)
	case *ast.CallExpr:
		// A summarized callee's result is as fresh as the arguments it may
		// return an alias of: name the identity/wrapper helper.
		if callee, args := p.Prog.callTarget(p.Pkg, e, sc.bind); callee != nil {
			for i, arg := range args {
				if root := rootIdent(arg); root != nil && flowAt(p.Prog.Flows(callee), i).ReturnsAlias && sc.mask(arg) != 0 {
					return fmt.Sprintf("is the result of %s, which returns an alias of its argument %s; the receiver would alias the caller's memory",
						callee.Name(), root.Name)
				}
			}
		}
	}
	// A literal, field or element that carries the alias inside.
	what := ""
	ast.Inspect(payload, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && what == "" && sc.masks[p.ObjectOf(id)] != 0 {
			what = "local " + id.Name
			if isParam(id) {
				what = "parameter " + id.Name
			}
		}
		return what == ""
	})
	if what == "" {
		what = "a //tess:loaned result" // the one source that is no variable
	}
	return "embeds " + what + "; the receiver would alias the caller's memory"
}

// taintedAt returns where obj first takes a non-empty mask in body: the
// assignment or declaration that brought the alias in (obj's own
// declaration when it arrives some other way, e.g. a range binding).
func (sc *summaryCtx) taintedAt(body *ast.BlockStmt, obj types.Object) token.Pos {
	at := obj.Pos()
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				root := rootIdent(lhs)
				if rhs := sc.assigned(st, i); rhs != nil && root != nil && objOf(sc.pkg, root) == obj && sc.mask(rhs) != 0 {
					at, found = st.Pos(), true
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) && objOf(sc.pkg, name) == obj && sc.mask(st.Values[i]) != 0 {
					at, found = st.Pos(), true
				}
			}
		}
		return true
	})
	return at
}

// checkUseAfterSend enforces that ownership leaves with the message: any
// later mention of the payload variable reads or writes memory the
// receiver now owns. The one sanctioned exception is the per-rank drain
// pattern — a container m whose elements are sent as m[k]: after the first
// such send, m may appear only as the payload of further sends.
func checkUseAfterSend(p *Pass, decl *ast.FuncDecl, call *ast.CallExpr, payload ast.Expr, sends []*ast.CallExpr) {
	root, _ := payload.(*ast.Ident)
	ix, drain := payload.(*ast.IndexExpr)
	if drain {
		root = rootIdent(ix.X)
	}
	if root == nil {
		return
	}
	obj := p.ObjectOf(root)
	if obj == nil {
		return
	}
	after := call.End()
	var drains []ast.Expr // the m[k] payloads of every send draining obj
	for _, o := range sends {
		oi, ok := ast.Unparen(sendPayload(p.Pkg, o)).(*ast.IndexExpr)
		if !drain || !ok {
			continue
		}
		if r := rootIdent(oi.X); r != nil && p.ObjectOf(r) == obj {
			after = min(after, o.End())
			drains = append(drains, oi)
		}
	}
	reported := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok || reported || use.Pos() <= after || p.ObjectOf(use) != obj {
			return true
		}
		for _, d := range drains {
			if d.Pos() <= use.Pos() && use.Pos() < d.End() {
				return true
			}
		}
		reported = true
		line := p.Fset.Position(use.Pos()).Line
		if drain {
			p.Reportf(call.Pos(), "comm Send payload container %s is read or written on line %d after its buffers were sent", root.Name, line)
		} else {
			p.Reportf(call.Pos(), "comm Send payload %s is used again on line %d after the send relinquishes ownership", root.Name, line)
		}
		return true
	})
}
