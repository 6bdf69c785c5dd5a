// Package sendalias exercises the sendalias analyzer: comm payloads must
// be freshly allocated by the sending function.
package sendalias

import "repro/internal/comm"

type wrapper struct {
	Buf []float64
}

// particle has no references, like diy.Particle.
type particle struct {
	ID  int64
	Pos [3]float64
}

// A fresh local transfers cleanly.
func sendFresh(w *comm.World, rank, dst int) {
	buf := make([]float64, 8)
	buf[0] = 1
	w.Send(rank, dst, 1, buf)
}

// A composite-literal payload of fresh parts is fine.
func sendLiteral(w *comm.World, rank, dst int) {
	w.Send(rank, dst, 1, wrapper{Buf: []float64{1, 2}})
}

// Pure value types are copied through the channel and are exempt, however
// they were obtained.
func sendValue(w *comm.World, rank, dst int, ps []particle) {
	w.Send(rank, dst, 1, ps[0])
}

// The shape of diy.Exchanger.Exchange's payload loop: a nil local per
// destination, made at the length a routing record counted and appended
// onto with values that hold no references.
type exchanger struct {
	dsts []int
	hits []int32
}

func (e *exchanger) exchange(w *comm.World, rank int, boundary []particle, shift [3]float64) {
	for _, dst := range e.dsts {
		e.hits = e.hits[:0]
		for bi := range boundary {
			e.hits = append(e.hits, int32(bi))
		}
		var payload []particle
		if n := len(e.hits); n > 0 {
			payload = make([]particle, 0, n)
			for _, bi := range e.hits {
				p := boundary[bi]
				q := p.Pos
				for k := range q {
					q[k] += shift[k]
				}
				payload = append(payload, particle{ID: p.ID, Pos: q})
			}
		}
		w.Send(rank, dst, 1, payload)
	}
}

// A parameter payload aliases the caller's memory on two ranks at once.
func sendParam(w *comm.World, rank, dst int, data []float64) {
	w.Send(rank, dst, 1, data) // want `payload data is not a local of the sending function`
}

// A composite literal can smuggle the alias inside a field.
func sendEmbedded(w *comm.World, rank, dst int, data []float64) {
	w.Send(rank, dst, 1, wrapper{Buf: data}) // want `payload data is not a local of the sending function`
}

// A local rebound to non-fresh memory carries the alias to the send.
func sendRebound(w *comm.World, rank, dst int, data []float64) {
	buf := make([]float64, 0, 8)
	buf = data[:2]            // the alias the analyzer pins to the send below
	w.Send(rank, dst, 1, buf) // want `payload buf is assigned data\[:2\] on line \d+`
}

// Appending onto a local copies values, but appended slices still share
// their backing arrays with the caller.
func sendAppendedRefs(w *comm.World, rank, dst int, rows [][]float64) {
	var buf [][]float64
	for _, r := range rows {
		buf = append(buf, r)
	}
	w.Send(rank, dst, 1, buf) // want `payload buf is assigned append\(buf, r\) on line \d+`
}

// A multi-value call's result is somebody else's memory.
func sendSplit(w *comm.World, rank, dst int, split func() ([]float64, []float64)) {
	var lo, hi = split()
	w.Send(rank, dst, 1, lo) // want `payload lo is assigned a call's result on line \d+`
	_ = hi
}

// A range binding is an element of somebody else's slice.
func sendRangeBound(w *comm.World, rank int, bufs [][]float64) {
	for dst, buf := range bufs {
		w.Send(rank, dst, 1, buf) // want `payload buf is bound by the range on line \d+`
	}
}

// A function literal's parameter is the caller's memory too.
func sendFromClosure(w *comm.World, rank, dst int) func([]float64) {
	return func(data []float64) {
		w.Send(rank, dst, 1, data) // want `payload data is a parameter of a function literal`
	}
}

// The audit's plant: one payload buffer per destination, kept in a struct
// field and sent again on the next exchange. The receiver of the previous
// step may still hold it, yet the two ranks touch it at different times,
// so the race detector stays quiet and the bytes agree.
type reusingExchanger struct {
	dsts     []int
	sendBufs [][]particle
}

func (e *reusingExchanger) exchange(w *comm.World, rank int, boundary []particle) {
	for di, dst := range e.dsts {
		payload := e.sendBufs[di][:0]
		payload = append(payload, boundary...)
		e.sendBufs[di] = payload
		w.Send(rank, dst, 1, payload) // want `payload payload is assigned e.sendBufs\[di\]\[:0\] on line \d+`
	}
}

// Sending the retained buffer itself is the same defect, said directly.
func (e *reusingExchanger) resend(w *comm.World, rank int) {
	for di, dst := range e.dsts {
		w.Send(rank, dst, 1, e.sendBufs[di]) // want `payload e.sendBufs\[di\] is not a local of the sending function`
	}
}
