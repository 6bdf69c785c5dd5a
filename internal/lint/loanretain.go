package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LoanRetain is the session-API analogue of ScratchRetain. Functions
// marked //tess:loaned (Session.Step, Session.StepSource and their
// wrappers) return borrowed storage: the provider owns it and overwrites
// it in place on the next step, so the result is valid only until the
// borrowing call chain returns. A loaned value may be read freely, but
// storing it beyond the chain — in a package-level variable, in a field
// of caller-visible memory, in a comm payload, or by returning it from a
// function not itself marked //tess:loaned — publishes memory that the
// next Step silently rewrites, the classic stale-output bug of in situ
// pipelines that reuse result buffers across timesteps.
//
// Calling Clone on a loaned value detaches it into owned memory and ends
// the loan. The analysis is interprocedural: a loan flowing through an
// identity helper stays loaned, and handing a loan to a helper whose
// summary retains or sends its parameter is reported at the call site.
// A function that legitimately passes a loan through (a thin wrapper)
// opts in by carrying the //tess:loaned marker itself, which moves the
// obligation to its callers.
var LoanRetain = &Analyzer{
	Name: "loanretain",
	Doc:  "values loaned by //tess:loaned providers must be Cloned before being stored beyond the borrowing call chain",
	Run:  runLoanRetain,
}

func runLoanRetain(p *Pass) {
	if p.Prog == nil {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, fs := range funcScopes(p, file) {
			checkLoanScope(p, fs)
		}
	}
}

func checkLoanScope(p *Pass, fs funcScope) {
	bind := funcBindings(p.Pkg, fs.body)
	tainted := loanTaint(p, fs, bind)
	if tainted == nil {
		return // no loaned call in this scope: the common case
	}
	loanedSelf := fs.decl != nil && docHasMarker(fs.decl.Doc, loanedMarker)
	inspectShallow(fs.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			if loanedSelf {
				return true // marked wrappers pass the loan to their callers
			}
			if len(st.Results) == 0 {
				for obj := range fs.results {
					if tainted[obj] {
						p.Reportf(st.Pos(),
							"bare return publishes loaned %s beyond the borrowing call chain; Clone it or mark the function //tess:loaned",
							obj.Name())
					}
				}
				return true
			}
			for _, res := range st.Results {
				if loanRooted(p, res, tainted, bind) && referencesEscape(p, res) {
					p.Reportf(st.Pos(),
						"returning a loaned value; the next Step overwrites it (Clone it, or mark the function //tess:loaned)")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				}
				if rhs == nil || !loanRooted(p, rhs, tainted, bind) || !referencesEscape(p, rhs) {
					continue
				}
				checkLoanStore(p, fs, st, lhs)
			}
		case *ast.SendStmt:
			if loanRooted(p, st.Value, tainted, bind) && referencesEscape(p, st.Value) {
				p.Reportf(st.Pos(),
					"sending a loaned value on a channel publishes it beyond the borrowing call chain; Clone it first")
			}
		case *ast.CallExpr:
			checkLoanCall(p, st, tainted, bind)
		}
		return true
	})
}

// checkLoanStore reports assignments that park a loaned value in storage
// outliving the borrowing call chain.
func checkLoanStore(p *Pass, fs funcScope, st *ast.AssignStmt, lhs ast.Expr) {
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := p.ObjectOf(root)
	if obj == nil {
		return
	}
	if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
		if obj.Parent() == p.Pkg.Types.Scope() {
			p.Reportf(st.Pos(),
				"storing a loaned value in package-level %s; the next Step overwrites it (Clone it first)",
				root.Name)
		}
		return // plain local assignment: taint propagation, not escape
	}
	// Store through a field/index/deref: escapes when the holder is
	// caller-visible (package-level or reachable from a parameter or
	// receiver); stores into purely local containers stay in the chain.
	if obj.Parent() == p.Pkg.Types.Scope() || fs.params[obj] {
		p.Reportf(st.Pos(),
			"storing a loaned value through %s, which outlives the borrowing call chain; Clone it first",
			root.Name)
	}
}

// checkLoanCall reports loaned arguments handed to helpers whose
// summaries retain or send their parameter.
func checkLoanCall(p *Pass, call *ast.CallExpr, tainted map[types.Object]bool, bind map[types.Object]boundFunc) {
	if isCloneCall(call) {
		return
	}
	callee, args := p.Prog.callTarget(p.Pkg, call, bind)
	if callee == nil {
		return
	}
	flows := p.Prog.Flows(callee)
	for i, arg := range args {
		if !loanRooted(p, arg, tainted, bind) || !referencesEscape(p, arg) {
			continue
		}
		f := flowAt(flows, i)
		// Unlike scratchretain, a sanctioned scratch holder is no better a
		// home for a loan: both retention kinds are reported.
		if f.Retained || f.RetainedScratch {
			note := f.RetainNote
			if note == "" {
				note = "stored in scratch-owner storage"
			}
			p.Reportf(call.Pos(),
				"passing a loaned value to %s, which retains it (%s); Clone it first",
				callee.Name(), note)
		}
		if f.Sent {
			p.Reportf(call.Pos(),
				"passing a loaned value to %s, which sends it %s; Clone it first",
				callee.Name(), f.SentNote)
		}
	}
}

// loanTaint computes the locals holding loaned references, or nil when
// the scope makes no //tess:loaned call at all.
func loanTaint(p *Pass, fs funcScope, bind map[types.Object]boundFunc) map[types.Object]bool {
	sawLoan := false
	inspectShallow(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && loanedCall(p, call, bind) {
			sawLoan = true
		}
		return !sawLoan
	})
	if !sawLoan {
		return nil
	}
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		inspectShallow(fs.body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.ObjectOf(id)
					if obj == nil || tainted[obj] {
						continue
					}
					var rhs ast.Expr
					if len(st.Rhs) == len(st.Lhs) {
						rhs = st.Rhs[i]
					} else if len(st.Rhs) == 1 && i == 0 {
						rhs = st.Rhs[0] // out, err := sess.Step(...): value 0 is the loan
					}
					if rhs != nil && loanRooted(p, rhs, tainted, bind) && referencesEscape(p, id) {
						tainted[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					obj := p.ObjectOf(name)
					if obj == nil || tainted[obj] || i >= len(st.Values) {
						continue
					}
					if loanRooted(p, st.Values[i], tainted, bind) && referencesEscape(p, name) {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}

// loanedCall reports whether call invokes a //tess:loaned provider.
func loanedCall(p *Pass, call *ast.CallExpr, bind map[types.Object]boundFunc) bool {
	callee, _ := p.Prog.callTarget(p.Pkg, call, bind)
	return p.Prog.Loaned(callee)
}

// isCloneCall reports whether call is a Clone method call — the
// sanctioned way to detach a loan into owned memory.
func isCloneCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Clone"
}

// loanRooted reports whether e carries a loaned reference: the direct
// result of a //tess:loaned call, a tainted local, projections of either
// (fields, elements, re-slices, address-of), a composite literal
// embedding one, or a summarized helper returning an alias of one. Clone
// calls launder the loan.
func loanRooted(p *Pass, e ast.Expr, tainted map[types.Object]bool, bind map[types.Object]boundFunc) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.ObjectOf(x)
		return obj != nil && tainted[obj]
	case *ast.SelectorExpr:
		return loanRooted(p, x.X, tainted, bind)
	case *ast.IndexExpr:
		return loanRooted(p, x.X, tainted, bind)
	case *ast.SliceExpr:
		return loanRooted(p, x.X, tainted, bind)
	case *ast.StarExpr:
		return loanRooted(p, x.X, tainted, bind)
	case *ast.UnaryExpr:
		return x.Op == token.AND && loanRooted(p, x.X, tainted, bind)
	case *ast.CallExpr:
		if isCloneCall(x) {
			return false
		}
		if loanedCall(p, x, bind) {
			return true
		}
		if isBuiltin(p, x, "append") && len(x.Args) > 0 {
			for _, a := range x.Args {
				if loanRooted(p, a, tainted, bind) {
					return true
				}
			}
			return false
		}
		if callee, args := p.Prog.callTarget(p.Pkg, x, bind); callee != nil {
			flows := p.Prog.Flows(callee)
			for i, arg := range args {
				if flowAt(flows, i).ReturnsAlias && loanRooted(p, arg, tainted, bind) {
					return true
				}
			}
		}
		return false
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if loanRooted(p, el, tainted, bind) {
				return true
			}
		}
		return false
	}
	return false
}
