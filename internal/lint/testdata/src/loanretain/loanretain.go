// Package loanretain exercises the loanretain analyzer: values returned
// by //tess:loaned providers are borrowed storage and must be Cloned
// before being stored beyond the borrowing call chain.
package loanretain

// Out stands in for the session Output: reference-carrying, Clonable.
type Out struct {
	Cells []float64
}

// Clone detaches into owned memory, ending the loan.
func (o *Out) Clone() *Out {
	c := make([]float64, len(o.Cells))
	copy(c, o.Cells)
	return &Out{Cells: c}
}

// Provider stands in for a Session.
type Provider struct {
	buf Out
}

// Step loans its result: the provider overwrites it on the next Step.
//
//tess:loaned
func (p *Provider) Step() (*Out, error) {
	return &p.buf, nil
}

// Holder is caller-visible storage a loan must not land in.
type Holder struct {
	Last *Out
}

var published *Out

// Reading a loan inside the borrowing chain is the intended use.
func readLoan(p *Provider) float64 {
	out, _ := p.Step()
	return out.Cells[0]
}

// Cloning detaches: storing the clone anywhere is fine.
func keepClone(p *Provider, h *Holder) {
	out, _ := p.Step()
	h.Last = out.Clone()
	published = out.Clone()
}

// A marked wrapper passes the loan to its callers by contract.
//
//tess:loaned
func wrappedStep(p *Provider) (*Out, error) {
	return p.Step()
}

func leakReturn(p *Provider) *Out {
	out, _ := p.Step()
	return out // want `returning a loaned value`
}

func leakReturnDirect(p *Provider) (*Out, error) {
	return p.Step() // want `returning a loaned value`
}

func leakGlobal(p *Provider) {
	out, _ := p.Step()
	published = out // want `storing a loaned value in package-level published`
}

func leakField(p *Provider, h *Holder) {
	out, _ := p.Step()
	h.Last = out // want `storing a loaned value through h`
}

func leakChannel(p *Provider, ch chan *Out) {
	out, _ := p.Step()
	ch <- out // want `sending a loaned value on a channel`
}

// stash retains its parameter; handing it a loan is reported at the call
// site through stash's interprocedural summary.
func stash(o *Out) {
	published = o
}

func leakViaHelper(p *Provider) {
	out, _ := p.Step()
	stash(out) // want `passing a loaned value to stash, which retains it`
}

// ident returns an alias of its argument, so the loan survives the call.
func ident(o *Out) *Out { return o }

func leakViaIdentity(p *Provider) *Out {
	out, _ := p.Step()
	return ident(out) // want `returning a loaned value`
}

// A projection of the loan is still the loan.
func leakProjection(p *Provider) []float64 {
	out, _ := p.Step()
	return out.Cells // want `returning a loaned value`
}

// Scalar projections carry no reference and may go anywhere.
var total float64

func readScalar(p *Provider) {
	out, _ := p.Step()
	total = out.Cells[0]
}

// A loan parked in a captured accumulator inside a closure and returned
// by the enclosing function is the RunInSitu shape: the closure body is
// part of the function's trace.
func leakViaClosure(p *Provider, steps int) []*Out {
	var snaps []*Out
	each := func() {
		out, _ := p.Step()
		snaps = append(snaps, out)
	}
	for i := 0; i < steps; i++ {
		each()
	}
	return snaps // want `returning a loaned value`
}

// The same accumulator holding clones is owned memory.
func keepViaClosure(p *Provider, steps int) []*Out {
	var snaps []*Out
	each := func() {
		out, _ := p.Step()
		snaps = append(snaps, out.Clone())
	}
	for i := 0; i < steps; i++ {
		each()
	}
	return snaps
}
