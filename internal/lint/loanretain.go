package lint

import "go/ast"

// LoanRetain polices the session API's borrowed results. Functions marked
// //tess:loaned (Session.Step, Session.StepFrom, Session.StepDensity)
// return borrowed storage: the provider owns it and overwrites it in
// place on the next step, so the result is valid only until the borrowing
// call chain returns. A loaned value may be read freely, but storing it
// beyond the chain — in a package-level variable, in a field of
// caller-visible memory, on a channel, or by returning it from a function
// not itself marked //tess:loaned — publishes memory that the next Step
// silently rewrites, the classic stale-output bug of in situ pipelines
// that reuse result buffers across timesteps. (A loan handed straight to a
// comm send is sendalias's finding: the payload is not fresh.)
//
// Calling Clone on a loaned value detaches it into owned memory and ends
// the loan. The analyzer is a source predicate on the shared taint engine
// (Program.trace): the loan is one more bit in the masks the summaries are
// computed from, so it follows identity helpers, containers and closure
// bodies exactly as a parameter does — a loan appended to a captured
// accumulator inside a closure and returned by the enclosing function is
// seen — and handing a loan to a helper whose summary retains or sends its
// parameter is reported at the call site. A function that legitimately
// passes a loan through (a thin wrapper) opts in by carrying the
// //tess:loaned marker itself, which moves the obligation to its callers.
var LoanRetain = &Analyzer{
	Name: "loanretain",
	Doc:  "values loaned by //tess:loaned providers must be Cloned before being stored beyond the borrowing call chain",
	Run:  runLoanRetain,
}

func runLoanRetain(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			wrapper := docHasMarker(decl.Doc, loanedMarker)
			p.Prog.trace(p.Pkg, decl, func(e escape) {
				if e.mask&loanBit != 0 {
					reportLoan(p, e, wrapper)
				}
			})
		}
	}
}

// reportLoan phrases one escape of a loaned value. wrapper is set inside a
// //tess:loaned function, whose own returns pass the loan to its callers.
func reportLoan(p *Pass, e escape, wrapper bool) {
	switch e.kind {
	case escReturn:
		if wrapper && !e.inLit {
			return
		}
		if e.name != "" {
			p.Reportf(e.pos, "bare return publishes loaned %s beyond the borrowing call chain; Clone it or mark the function //tess:loaned", e.name)
		} else {
			p.Reportf(e.pos, "returning a loaned value; the next Step overwrites it (Clone it, or mark the function //tess:loaned)")
		}
	case escGlobal:
		p.Reportf(e.pos, "storing a loaned value in package-level %s; the next Step overwrites it (Clone it first)", e.name)
	case escStore:
		p.Reportf(e.pos, "storing a loaned value through %s, which outlives the borrowing call chain; Clone it first", e.name)
	case escChan:
		p.Reportf(e.pos, "sending a loaned value on a channel publishes it beyond the borrowing call chain; Clone it first")
	case escCallRetained:
		p.Reportf(e.pos, "passing a loaned value to %s, which retains it (%s); Clone it first", e.name, e.note)
	case escCallSent:
		p.Reportf(e.pos, "passing a loaned value to %s, which sends it %s; Clone it first", e.name, e.note)
	}
}
