package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Summary is one function's interprocedural contract: for each parameter
// (receiver first, in declaration order), whether memory reachable from
// it can leave the call — returned to the caller, retained in storage
// that outlives the call, or sent to another rank. Summaries are computed
// bottom-up over the call graph to a fixpoint, so the facts are
// transitive: a function that hands its parameter to a helper that stores
// it in a package-level variable is itself "retaining".
type Summary struct {
	// Params holds the receiver (if any) followed by the parameters, in
	// order; entries are nil for unnamed or blank parameters, which no
	// body expression can reference.
	Params []types.Object
	// Flows is parallel to Params.
	Flows []ParamFlow
}

// ParamFlow is the escape contract of one parameter.
type ParamFlow struct {
	// ReturnsAlias: some return value may alias memory reachable from the
	// parameter (identity helpers, re-slicers, wrappers).
	ReturnsAlias bool
	// Retained: the parameter's memory is stored somewhere that outlives
	// the call — a package-level variable, a field of caller-visible
	// memory, a raw channel — directly or via a callee.
	Retained bool
	// Sent: the parameter's memory flows into a comm point-to-point send
	// payload, directly or via a callee.
	Sent bool
	// RetainNote and SentNote locate the first witnessing site, for
	// diagnostics ("stored in package-level sink", "sent by drain").
	RetainNote, SentNote string
}

// Flows returns fn's parameter flows, or nil when fn is outside the
// Program.
func (prog *Program) Flows(fn *types.Func) []ParamFlow {
	s := prog.Summary(fn)
	if s == nil {
		return nil
	}
	return s.Flows
}

// flowAt returns the flow of argument i, folding variadic tails onto the
// last declared parameter.
func flowAt(flows []ParamFlow, i int) ParamFlow {
	if len(flows) == 0 {
		return ParamFlow{}
	}
	if i >= len(flows) {
		i = len(flows) - 1
	}
	return flows[i]
}

// flowsEqual compares only the monotone flags the fixpoint iterates on.
func flowsEqual(a, b []ParamFlow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ReturnsAlias != b[i].ReturnsAlias || a[i].Retained != b[i].Retained || a[i].Sent != b[i].Sent {
			return false
		}
	}
	return true
}

// computeSummaries iterates summarizeFunc over every function in
// deterministic order until no flow flag changes. All flags are monotone
// (false -> true only), so the fixpoint exists and is order-independent.
func (prog *Program) computeSummaries() {
	for _, fn := range prog.order {
		fi := prog.info[fn]
		params := paramObjects(fi.pkg, fi.decl)
		prog.summaries[fn] = &Summary{Params: params, Flows: make([]ParamFlow, len(params))}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.order {
			if prog.summarizeFunc(fn) {
				changed = true
			}
		}
	}
}

// paramObjects flattens receiver + parameters into their declared objects
// (nil for unnamed/blank entries, which keep their positional slot).
func paramObjects(pkg *Package, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range f.Names {
				if name.Name == "_" {
					out = append(out, nil)
					continue
				}
				out = append(out, pkg.Info.Defs[name])
			}
		}
	}
	add(decl.Recv)
	add(decl.Type.Params)
	return out
}

// summarizeFunc recomputes fn's flows from one trace of its body and
// reports whether any flag changed.
func (prog *Program) summarizeFunc(fn *types.Func) bool {
	fi, sum := prog.info[fn], prog.summaries[fn]
	flows := make([]ParamFlow, len(sum.Params))
	prog.trace(fi.pkg, fi.decl, func(e escape) {
		for i := range flows {
			if e.mask&(1<<i) == 0 {
				continue
			}
			f := &flows[i]
			switch e.kind {
			case escReturn:
				// A closure's return is not the function's own.
				f.ReturnsAlias = f.ReturnsAlias || !e.inLit
			case escCommSend, escCallSent:
				if !f.Sent {
					f.Sent, f.SentNote = true, e.witness()
				}
			default:
				if !f.Retained {
					f.Retained, f.RetainNote = true, e.witness()
				}
			}
		}
	})
	if flowsEqual(sum.Flows, flows) {
		return false
	}
	sum.Flows = flows
	return true
}

// escapeKind names the ways traced memory leaves a function.
type escapeKind int

const (
	escReturn       escapeKind = iota // returned (name set for a bare return's named result)
	escGlobal                         // assigned to the package-level variable name
	escStore                          // stored through name, a holder the caller observes
	escChan                           // sent on a raw channel
	escCallRetained                   // passed to callee name, whose summary retains it (note)
	escCallSent                       // passed to callee name, whose summary sends it (note)
	escCommSend                       // a comm point-to-point payload
)

// escape is one sink event of a trace: the sources in mask reach a place
// that outlives the call.
type escape struct {
	kind escapeKind
	pos  token.Pos
	mask uint64
	// name is the global, holder root, named result or callee involved;
	// note is the callee's own witness for the escCall kinds.
	name, note string
	// inLit marks a return statement of a nested function literal.
	inLit bool
}

// witness phrases the event as a ParamFlow note.
func (e escape) witness() string {
	switch e.kind {
	case escGlobal:
		return "stored in package-level " + e.name
	case escStore:
		return "stored through " + e.name
	case escChan:
		return "sent on a channel"
	case escCallRetained:
		return "retained by " + e.name
	case escCallSent:
		return "sent by " + e.name
	case escCommSend:
		return "as a comm payload"
	}
	return ""
}

// loanBit is the one source that is not a parameter: the result of a
// //tess:loaned call. It rides the same masks as the parameter bits (bit
// i = parameter i, so 63 parameters are tracked) and a Clone call clears
// it.
const loanBit uint64 = 1 << 63

// summaryCtx is the taint engine: the state of one trace of one function
// body. It is the only alias walk in the package — the summaries read the
// parameter bits of what it reports, loanretain reads the loan bit.
type summaryCtx struct {
	prog   *Program
	pkg    *Package
	params []types.Object
	bind   map[types.Object]boundFunc
	// masks maps each object to the set of sources whose memory it may
	// reach.
	masks map[types.Object]uint64
	sink  func(escape)
}

// trace seeds decl's reference-carrying parameters, propagates the source
// masks through the body to a fixpoint, and calls sink once per site where
// a non-empty mask escapes. decl need not belong to the Program; calls
// resolve only to functions that do. The returned context holds the
// stabilized masks, for a caller that asks about expressions of its own
// (sendalias: each send's payload).
func (prog *Program) trace(pkg *Package, decl *ast.FuncDecl, sink func(escape)) *summaryCtx {
	sc := &summaryCtx{
		prog:   prog,
		pkg:    pkg,
		params: paramObjects(pkg, decl),
		bind:   funcBindings(pkg, decl.Body),
		masks:  map[types.Object]uint64{},
		sink:   sink,
	}
	for i, obj := range sc.params {
		if i < 63 && obj != nil && obj.Type() != nil && hasReference(obj.Type()) {
			sc.masks[obj] = 1 << i
		}
	}
	body := decl.Body

	// Local alias fixpoint: propagate masks through assignments,
	// declarations, range bindings, and container stores. Closure bodies
	// participate (a closure that leaks a captured parameter, or parks a
	// loan in a captured accumulator, does so for the function).
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					if rhs := sc.assigned(st, i); rhs != nil && sc.bindMask(lhs, sc.mask(rhs)) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if i < len(st.Values) && sc.bindIdentMask(name, sc.mask(st.Values[i])) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if v, ok := st.Value.(*ast.Ident); ok && sc.refTyped(v) && sc.bindIdentMask(v, sc.mask(st.X)) {
					changed = true
				}
			}
			return true
		})
	}

	// Escape detection over the stabilized masks.
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if rhs := sc.assigned(st, i); rhs != nil {
					sc.checkStore(st.Pos(), lhs, rhs)
				}
			}
		case *ast.SendStmt:
			if sc.refTyped(st.Value) {
				sc.emit(escape{kind: escChan, pos: st.Pos(), mask: sc.mask(st.Value)})
			}
		case *ast.CallExpr:
			sc.checkCall(st)
		}
		return true
	})
	sc.checkReturns(body, decl.Type.Results, false)
	return sc
}

// assigned returns the expression whose value lands in st.Lhs[i]: the
// matching right-hand side, or the one multi-value call for each of its
// reference-carrying results (out, err := sess.Step(...) — an error
// carries no alias by convention).
func (sc *summaryCtx) assigned(st *ast.AssignStmt, i int) ast.Expr {
	if len(st.Rhs) == len(st.Lhs) {
		return st.Rhs[i]
	}
	if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
		if t := sc.pkg.Info.TypeOf(st.Lhs[i]); t != nil && hasReference(t) && !isErrorType(t) {
			return call
		}
	}
	return nil
}

func (sc *summaryCtx) emit(e escape) {
	if e.mask != 0 {
		sc.sink(e)
	}
}

// checkReturns reports what the return statements of body publish. Nested
// function literals are walked with inLit set, so their returns can be
// told from the traced function's own.
func (sc *summaryCtx) checkReturns(body *ast.BlockStmt, results *ast.FieldList, inLit bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			sc.checkReturns(st.Body, st.Type.Results, true)
			return false
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if sc.refTyped(r) {
					sc.emit(escape{kind: escReturn, pos: st.Pos(), mask: sc.mask(r), inLit: inLit})
				}
			}
			if len(st.Results) == 0 && results != nil {
				// Bare return publishes the named results.
				for _, f := range results.List {
					for _, name := range f.Names {
						sc.emit(escape{kind: escReturn, pos: st.Pos(), mask: sc.masks[sc.pkg.Info.Defs[name]],
							name: name.Name, inLit: inLit})
					}
				}
			}
		}
		return true
	})
}

func (sc *summaryCtx) refTyped(e ast.Expr) bool {
	t := sc.pkg.Info.TypeOf(e)
	return t != nil && hasReference(t)
}

// bindMask propagates an assignment's mask into its target: identifiers
// accumulate directly; stores through fields/indexes of a local taint the
// local (coarse container tainting, so `x.f = p; return x` is seen).
// Stores into escaping holders are escapes, handled by checkStore.
func (sc *summaryCtx) bindMask(lhs ast.Expr, m uint64) bool {
	if m == 0 {
		return false
	}
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return sc.bindIdentMask(x, m)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		root := rootIdent(lhs)
		if root == nil {
			return false
		}
		obj := objOf(sc.pkg, root)
		if obj == nil || sc.isEscapingHolder(obj) {
			return false
		}
		return sc.orMask(obj, m)
	}
	return false
}

func (sc *summaryCtx) bindIdentMask(id *ast.Ident, m uint64) bool {
	if m == 0 || id.Name == "_" {
		return false
	}
	obj := objOf(sc.pkg, id)
	if obj == nil {
		return false
	}
	return sc.orMask(obj, m)
}

func (sc *summaryCtx) orMask(obj types.Object, m uint64) bool {
	old := sc.masks[obj]
	if old|m == old {
		return false
	}
	sc.masks[obj] = old | m
	return true
}

// isEscapingHolder reports whether storage rooted at obj outlives the
// call from the caller's point of view: package-level variables and
// anything reachable from a reference-carrying parameter.
func (sc *summaryCtx) isEscapingHolder(obj types.Object) bool {
	if v, ok := obj.(*types.Var); ok && v.Parent() == sc.pkg.Types.Scope() {
		return true
	}
	// Parameters hold their own bit; writing through them lands in memory
	// the caller (or the receiver's owner) observes.
	for i, p := range sc.params {
		if p == obj && i < 63 && sc.masks[obj]&(1<<i) != 0 {
			return true
		}
	}
	return false
}

// checkStore reports stores whose target outlives the call.
func (sc *summaryCtx) checkStore(pos token.Pos, lhs, rhs ast.Expr) {
	root := rootIdent(lhs)
	if root == nil || !sc.refTyped(rhs) {
		return
	}
	obj := objOf(sc.pkg, root)
	if obj == nil || !sc.isEscapingHolder(obj) {
		return
	}
	kind := escStore
	if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
		if obj.Parent() != sc.pkg.Types.Scope() {
			return // a reassigned parameter: the caller's copy is untouched
		}
		kind = escGlobal
	}
	sc.emit(escape{kind: kind, pos: pos, mask: sc.mask(rhs), name: root.Name})
}

// checkCall applies callee flows to the call's arguments: passing traced
// memory to a retaining/sending callee is an escape of this function too.
// Point-to-point comm sends are recognized structurally, so the fact holds
// even when the comm package is outside the Program.
func (sc *summaryCtx) checkCall(call *ast.CallExpr) {
	if payload := sendPayload(sc.pkg, call); payload != nil {
		sc.emit(escape{kind: escCommSend, pos: call.Pos(), mask: sc.mask(payload)})
	}
	callee, args := sc.prog.callTarget(sc.pkg, call, sc.bind)
	if callee == nil {
		return
	}
	flows := sc.prog.summaries[callee].Flows
	keep := ^uint64(0)
	if isCloneCall(call) {
		keep = ^loanBit // Clone reads the loan; that is its job
	}
	for i, arg := range args {
		m := sc.mask(arg) & keep
		f := flowAt(flows, i)
		if f.Retained {
			sc.emit(escape{kind: escCallRetained, pos: call.Pos(), mask: m, name: callee.Name(), note: f.RetainNote})
		}
		if f.Sent {
			sc.emit(escape{kind: escCallSent, pos: call.Pos(), mask: m, name: callee.Name(), note: f.SentNote})
		}
	}
}

// mask computes the source set reachable from e. Reads of reference-free
// values (s.len, b[0] of a []float64) contribute nothing; taking an
// address bypasses that gate, because &x.f aliases x's memory whatever
// f's type is.
func (sc *summaryCtx) mask(e ast.Expr) uint64 {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		return sc.masks[objOf(sc.pkg, x)]
	case *ast.SelectorExpr:
		if !sc.refTyped(x) {
			return 0
		}
		return sc.mask(x.X)
	case *ast.IndexExpr:
		if !sc.refTyped(x) {
			return 0
		}
		return sc.mask(x.X)
	case *ast.SliceExpr:
		return sc.mask(x.X)
	case *ast.StarExpr:
		if !sc.refTyped(x) {
			return 0
		}
		return sc.mask(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return sc.maskAddr(x.X)
		}
		return 0
	case *ast.CompositeLit:
		var m uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			m |= sc.mask(el)
		}
		return m
	case *ast.CallExpr:
		return sc.callMask(x)
	}
	return 0
}

// maskAddr is mask for an address-of operand: the leaf type gate does not
// apply along the selector chain.
func (sc *summaryCtx) maskAddr(e ast.Expr) uint64 {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return sc.masks[objOf(sc.pkg, x)]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return sc.mask(e)
		}
	}
}

// callMask computes the mask of a call result: append and conversions
// propagate their operands; resolvable module calls propagate the
// arguments their summaries return aliases of, a //tess:loaned one adds
// the loan and a Clone ends it; everything else is owned by convention.
func (sc *summaryCtx) callMask(call *ast.CallExpr) uint64 {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := objOf(sc.pkg, id).(*types.Builtin); isB {
			if id.Name != "append" {
				return 0
			}
			var m uint64
			for _, a := range call.Args {
				m |= sc.mask(a)
			}
			return m
		}
	}
	// Conversion T(x): aliasing-preserving for slice/pointer conversions.
	if tv, ok := sc.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return sc.mask(call.Args[0])
	}
	callee, args := sc.prog.callTarget(sc.pkg, call, sc.bind)
	if callee == nil {
		return 0
	}
	flows := sc.prog.summaries[callee].Flows
	var m uint64
	for i, arg := range args {
		if flowAt(flows, i).ReturnsAlias {
			m |= sc.mask(arg)
		}
	}
	if sc.prog.Loaned(callee) {
		m |= loanBit
	}
	if isCloneCall(call) {
		m &^= loanBit
	}
	return m
}

// isCloneCall reports whether call is a Clone method call — the
// sanctioned way to detach a loan into owned memory.
func isCloneCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Clone"
}
