// Package maporder exercises the maporder analyzer: map iteration order
// is randomized per run, so loop bodies must not let it reach output,
// messages, or float accumulation.
package maporder

import (
	"maps"
	"slices"

	"repro/internal/comm"
)

// Iterating sorted keys is the sanctioned idiom: the range is over a
// slice, not the map.
func sortedDrain(m map[int]float64) float64 {
	var total float64
	for _, k := range slices.Sorted(maps.Keys(m)) {
		total += m[k]
	}
	return total
}

// Counting and other order-insensitive work is fine.
func count(m map[int]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Integer accumulation is associative; only floats are flagged.
func sumInts(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func appendDrain(m map[int]float64) []int {
	var keys []int
	for k := range m { // want `appends to keys, which outlives the loop`
		keys = append(keys, k)
	}
	return keys
}

func sendDrain(w *comm.World, rank int, m map[int][]float64) {
	for dst := range m { // want `comm call on line \d+ inside map iteration`
		w.Send(rank, dst, 1, m[dst])
	}
}

func sumFloats(m map[int]float64) float64 {
	var total float64
	for _, v := range m { // want `accumulates float total`
		total += v
	}
	return total
}

// Ranging over the maps.Keys iterator is the same hazard as ranging over
// the map itself.
func iterKeys(m map[int]float64) []int {
	var keys []int
	for k := range maps.Keys(m) { // want `appends to keys, which outlives the loop`
		keys = append(keys, k)
	}
	return keys
}

// The audit's plant, in the shape of track.matchSnapshots: links built by
// ranging over the overlap counts instead of their sorted keys come out in
// a different order on every run, and no test compares two runs' order.
type link struct{ from, to, overlap int }

func matchCounts(from int, counts map[int]int) []link {
	var links []link
	for to, ov := range counts { // want `appends to links, which outlives the loop`
		links = append(links, link{from, to, ov})
	}
	return links
}
