// Package sendalias exercises the sendalias analyzer: comm payloads must
// be freshly allocated in the sending function and never touched after
// the send relinquishes ownership.
package sendalias

import "repro/internal/comm"

type wrapper struct {
	Buf []float64
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

// Pure value types are copied through the channel and are exempt.
func sendValue(w *comm.World, rank, dst, n int) {
	w.Send(rank, dst, 1, n)
}

// A parameter payload aliases the caller's memory on two ranks at once.
func sendParam(w *comm.World, rank, dst int, data []float64) {
	w.Send(rank, dst, 1, data) // want `payload data is a function parameter`
}

// A composite literal can smuggle the alias inside a field.
func sendEmbedded(w *comm.World, rank, dst int, data []float64) {
	w.Send(rank, dst, 1, wrapper{Buf: data}) // want `payload embeds parameter data`
}

// Touching the payload after the send reads memory the receiver now owns.
func sendThenReuse(w *comm.World, rank, dst int) float64 {
	buf := make([]float64, 8)
	w.Send(rank, dst, 1, buf) // want `used again on line \d+ after the send`
	return buf[0]
}

// A local rebound to non-fresh memory carries the alias to the send.
func sendRebound(w *comm.World, rank, dst int, data []float64) {
	buf := make([]float64, 0, 8)
	buf = data[:2]            // the alias the analyzer pins to the send below
	w.Send(rank, dst, 1, buf) // want `aliases non-fresh memory assigned on line \d+`
}

// Draining a local per-rank map is the sanctioned exchange pattern as
// long as later mentions of the container are only send payloads.
func drainMap(w *comm.World, rank int, dsts []int) {
	perRank := map[int][]float64{}
	for _, d := range dsts {
		perRank[d] = append(perRank[d], float64(d))
	}
	for _, d := range dsts {
		w.Send(rank, d, 1, perRank[d])
	}
}

// Reading the container after its buffers were sent aliases sent memory.
func drainThenReuse(w *comm.World, rank int, dsts []int) int {
	perRank := map[int][]float64{}
	for _, d := range dsts {
		perRank[d] = append(perRank[d], float64(d))
	}
	for _, d := range dsts {
		w.Send(rank, d, 1, perRank[d]) // want `container perRank is read or written on line \d+`
	}
	return len(perRank)
}
