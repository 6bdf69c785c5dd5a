package delaunay

import (
	"math/bits"

	"repro/internal/geom"
)

// Insertion order. Bowyer–Watson costs what its walks and cavities cost, and
// both stay short only when each point lands next to the one before it in a
// mesh that already samples the whole set. BRIO (Amenta, Choi & Rote,
// "Incremental constructions con BRIO", SoCG 2003) gives both: the points are
// dealt into rounds of geometrically growing size — a point joins the last
// round with probability 1/2, the one before it with 1/4, and so on, the
// first round taking the rest, about brioFirstRound or more — and each round
// is inserted along a 3D Hilbert curve over the input's bounding cube.
//
// The order is a function of the coordinates: a point's round comes from a
// hash of its quantized position, not of its index, and its place in the
// round from its Hilbert cell, with ties in input order. Exactly coincident
// points share both, so the lowest index among them is inserted first and
// becomes the vertex.
const (
	brioFirstRound = 1000
	quantBits      = 21 // per axis, for the round hash
	hilbertBits    = 9  // per axis: the Hilbert index takes 27 bits
	roundShift     = 3 * hilbertBits
)

// sortInsertions leaves the insertion order of the b.n real points in
// b.order: keys round<<59 | hilbert<<32 | index, sorted by sortHigh. lo and
// size are the corner and side of the bounding cube.
func (b *builder) sortInsertions(lo geom.Vec3, size float64) {
	n := b.n
	rounds := 1 // at most 21 for n below maxTets, so the round fits 5 bits
	for n>>rounds >= brioFirstRound {
		rounds++
	}
	scale := (1 << quantBits) / size
	b.order = grown(b.order, n)
	for i, p := range b.pts[:n] {
		x, y, z := quantize(p.X-lo.X, scale), quantize(p.Y-lo.Y, scale), quantize(p.Z-lo.Z, scale)
		hash := mix64(uint64(x) | uint64(y)<<quantBits | uint64(z)<<(2*quantBits))
		round := rounds - 1 - min(bits.TrailingZeros64(hash), rounds-1)
		const drop = quantBits - hilbertBits
		h := hilbert3(x>>drop, y>>drop, z>>drop, hilbertBits)
		b.order[i] = uint64(round<<roundShift|int(h))<<32 | uint64(i)
	}
	b.orderTmp = grown(b.orderTmp, n)
	b.order, b.orderTmp = sortHigh(b.order, b.orderTmp)
}

// quantize maps an offset d >= 0 into the bounding cube to one of
// 2^quantBits cells.
func quantize(d, scale float64) uint32 {
	return uint32(min(d*scale, 1<<quantBits-1))
}

// mix64 is the splitmix64 finalizer: every output bit depends on every
// input bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// hilbert3 returns the position of cell (x, y, z), each below 2^order,
// along the 3D Hilbert curve of that order (order <= 10): Skilling's
// axes-to-transpose ("Programming the Hilbert curve", AIP Conf. Proc. 707,
// 2004), then the transposed bits interleaved, x's most significant first.
func hilbert3(x, y, z uint32, order int) uint32 {
	a := [3]uint32{x, y, z}
	top := uint32(1) << (order - 1)
	for q := top; q > 1; q >>= 1 {
		p := q - 1
		for i := range a {
			if a[i]&q != 0 {
				a[0] ^= p
			} else {
				t := (a[0] ^ a[i]) & p
				a[0] ^= t
				a[i] ^= t
			}
		}
	}
	a[1] ^= a[0]
	a[2] ^= a[1]
	var t uint32
	for q := top; q > 1; q >>= 1 {
		if a[2]&q != 0 {
			t ^= q - 1
		}
	}
	var h uint32
	for bit := order - 1; bit >= 0; bit-- {
		for i := range a {
			h = h<<1 | (a[i]^t)>>bit&1
		}
	}
	return h
}
