// Package interproc is the regression fixture for the interprocedural
// summary layer: every leak here escapes through a helper call, so a
// strictly function-local pass (an empty Program) sees nothing, while the
// summarized pass reports each one. TestInterprocRegression pins both
// halves of that claim.
package interproc

import "repro/internal/comm"

// Session stands in for a tessellation session, as in the loanretain
// fixture: Step loans its result and the next Step overwrites it.
type Session struct {
	verts []float64
}

// Step returns borrowed storage.
//
//tess:loaned
func (s *Session) Step() []float64 { return s.verts }

var sink []float64

// stash retains its parameter in a package-level variable.
func stash(v []float64) {
	sink = v
}

// ident returns an alias of its argument.
func ident(v []float64) []float64 { return v }

// reident is ident behind another call layer: summaries are transitive.
func reident(v []float64) []float64 { return ident(v) }

// dup returns owned memory; the escape chain ends here.
func dup(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// drain sends its parameter as a comm payload. The direct violation is
// suppressed so the fixture isolates the interprocedural finding at
// drain's call sites (the summary still records the Sent flow).
func drain(w *comm.World, rank, dst int, v []float64) {
	//lint:ignore sendalias deliberate forwarder: this fixture tests the Sent summary at the call site
	w.Send(rank, dst, 1, v)
}

func leakViaStash(s *Session) {
	stash(s.Step()) // want `passing a loaned value to stash, which retains it \(stored in package-level sink\)`
}

func leakViaIdent(s *Session) []float64 {
	return ident(s.Step()) // want `returning a loaned value`
}

func leakViaTwoHops(s *Session) []float64 {
	return reident(s.Step()) // want `returning a loaned value`
}

func leakViaIdentAlias(s *Session) []float64 {
	v := ident(s.Step())
	return v // want `returning a loaned value`
}

func leakViaDrain(w *comm.World, rank, dst int, s *Session) {
	drain(w, rank, dst, s.Step()) // want `passing a loaned value to drain, which sends it as a comm payload`
}

// Detaching through a copying helper is the sanctioned way out.
func detachViaDup(s *Session) []float64 {
	return dup(s.Step())
}

// sendIdent launders a caller payload through an identity helper; the
// summary sees through the call where the v1 syntactic check ("call
// results are fresh") did not.
func sendIdent(w *comm.World, rank, dst int, buf []float64) {
	w.Send(rank, dst, 1, ident(buf)) // want `comm Send payload is the result of ident, which returns an alias of its argument buf`
}

// sendDup is the same shape with a copying helper: fine.
func sendDup(w *comm.World, rank, dst int, buf []float64) {
	w.Send(rank, dst, 1, dup(buf))
}

// assignIdent reaches the send through a local assigned from the
// identity helper: the freshness check consults the summary too.
func assignIdent(w *comm.World, rank, dst int, buf []float64) {
	payload := ident(buf) // aliases buf
	w.Send(rank, dst, 1, payload) // want `comm Send payload payload aliases non-fresh memory`
}

// Method-value edges: binding a method to a local and calling through it
// keeps the call-graph edge.
type keeper struct {
	held []float64
}

func (k *keeper) keep(v []float64) {
	k.held = v
}

func leakViaMethodValue(s *Session, k *keeper) {
	f := k.keep
	f(s.Step()) // want `passing a loaned value to keep, which retains it \(stored through k\)`
}
