package diy

import (
	"repro/internal/comm"
	"repro/internal/geom"
)

// Particle is a point with a stable global identity. Ghost copies received
// from other blocks keep the original ID, which is how tess resolves
// duplicated cells back to unique owners.
type Particle struct {
	ID  int64
	Pos geom.Vec3
}

const tagExchange = 100

// Exchanger performs the bidirectional neighborhood particle exchange of
// the paper's Sec. III-C1 for one rank: every particle within ghost distance
// of a neighbor's region is sent to that neighbor (and only to neighbors
// near enough to need it — the "targeted" part), with coordinates
// transformed across periodic boundaries.
//
// It keeps state for persistent sessions: the link geometry (links,
// ghost-expanded target bounds, destination-rank coalescing) is derived
// once at construction, and the receive-side buffers (boundary
// candidate set, ghost concatenation) are reused across calls. Outgoing
// message payloads are freshly allocated every call — a sent buffer
// transfers ownership to the receiver (the comm package's aliasing
// convention), so they are the one thing an exchanger must never retain —
// each at its exact length: a routing pass records which candidates land
// in which link's target, and the payload is allocated for that many and
// filled from the record. The ghost concatenation grows only when the
// batches received outgrow it, and then once, to their summed length, so a
// cold call allocates every buffer of the ghost path once.
//
// The returned ghost slice is valid until the next Exchange call. An
// Exchanger serves one (rank, ghost) pair and is not safe for concurrent
// use.
type Exchanger struct {
	ghost    float64
	targets  []geom.Box // ghost-expanded peer bounds, per link
	links    []link
	dsts     []int   // distinct destination ranks, ascending
	linksFor [][]int // link indices per destination, aligned with dsts

	// prefilterSlack widens the boundary-candidate test by a relative
	// epsilon so float roundoff in the per-link containment test can
	// never make the candidate set miss a particle the exact test would
	// send; candidates are always re-tested exactly per link.
	prefilterSlack float64

	boundary []Particle   // retained candidate buffer
	hits     []int32      // route's retained output
	batches  [][]Particle // this call's received payloads, aligned with dsts
	ghosts   []Particle   // retained receive buffer
}

// NewExchanger prepares the retained exchange state for one rank of the
// decomposition at the given ghost distance.
func NewExchanger(d *Decomposition, rank int, ghost float64) *Exchanger {
	e := &Exchanger{
		ghost:          ghost,
		links:          links(d, rank, ghost),
		prefilterSlack: 1e-9 * d.Domain.Size().MaxAbs(),
	}
	e.targets = make([]geom.Box, len(e.links))
	for li, l := range e.links {
		e.targets[li] = d.Block(l.rank).Bounds.Expand(ghost)
		// Links come grouped by peer in ascending rank: coalesce each
		// peer's into one message (message count is what the exchange cost
		// tracks), so the ghost concatenation order is deterministic.
		if n := len(e.dsts); n == 0 || e.dsts[n-1] != l.rank {
			e.dsts = append(e.dsts, l.rank)
			e.linksFor = append(e.linksFor, nil)
		}
		last := len(e.linksFor) - 1
		e.linksFor[last] = append(e.linksFor[last], li)
	}
	e.batches = make([][]Particle, len(e.dsts))
	return e
}

// link is one route out of a rank: a particle p travels to block rank as
// p+shift.
type link struct {
	rank  int
	shift geom.Vec3
}

// links derives rank's links at the given ghost, for any decomposition:
// block b under the single-wrap periodic image shift s (only the identity
// when the domain is bounded, and never the identity for b == rank) is a
// link exactly when reaches(rank, b, s) || reaches(b, rank, -s). Both ends
// evaluate the same two tests, so the relation is symmetric whatever the
// rounding. Links come grouped by peer in ascending rank, and each peer's
// in descending shift, z-major: below the smallest block side a regular
// grid's links are then exactly its 26-neighbourhood, in that order, and a
// wider ghost reaches past it.
func links(d *Decomposition, rank int, ghost float64) []link {
	wrap := 0
	if d.Periodic {
		wrap = 1
	}
	L := d.Domain.Size()
	a := d.blocks[rank].Bounds
	var out []link
	for b, blk := range d.blocks {
		for dz := wrap; dz >= -wrap; dz-- {
			for dy := wrap; dy >= -wrap; dy-- {
				for dx := wrap; dx >= -wrap; dx-- {
					if b == rank && dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					s := geom.V(float64(dx)*L.X, float64(dy)*L.Y, float64(dz)*L.Z)
					if reaches(a, blk.Bounds, s, ghost) || reaches(blk.Bounds, a, s.Neg(), ghost) {
						out = append(out, link{rank: b, shift: s})
					}
				}
			}
		}
	}
	return out
}

// reaches reports whether a point of src, translated by shift, could lie in
// dst expanded by ghost. It is the exchange's own arithmetic on the box
// corners — the same Add, the same closed test — so rounding that lets a
// particle through also makes the link.
func reaches(src, dst geom.Box, shift geom.Vec3, ghost float64) bool {
	lo, hi, t := src.Min.Add(shift), src.Max.Add(shift), dst.Expand(ghost)
	return lo.X <= t.Max.X && hi.X >= t.Min.X &&
		lo.Y <= t.Max.Y && hi.Y >= t.Min.Y &&
		lo.Z <= t.Max.Z && hi.Z >= t.Min.Z
}

// Exchange runs one collective ghost exchange through the retained state;
// all ranks of the world must call it together. local must be the
// particles of the rank the Exchanger was built for. It returns the ghost
// particles received from all neighbors, with positions already expressed
// in this block's frame. They do not include this block's own particles
// unless the decomposition is thin enough that the block is its own
// periodic neighbor, in which case the self-images arrive shifted by the
// domain period (as required for a correct periodic tessellation).
func (e *Exchanger) Exchange(w *comm.World, d *Decomposition, rank int, local []Particle) []Particle {
	// Candidate prefilter: a particle can only be within ghost reach of a
	// peer's region if it is within ghost of this block's own boundary, so
	// the per-link containment tests run over the boundary shell only. The
	// slack keeps the set a strict superset under roundoff; the exact
	// per-link test below decides membership, so the sent batches match the
	// unfiltered scan bit for bit.
	myBounds := d.Block(rank).Bounds
	cut := e.ghost + e.prefilterSlack
	e.boundary = e.boundary[:0]
	for _, p := range local {
		if myBounds.InteriorDist(p.Pos) <= cut {
			e.boundary = append(e.boundary, p)
		}
	}
	if n := len(e.boundary) + len(e.links); cap(e.hits) < n {
		e.hits = make([]int32, 0, n)
	}

	// Post all sends, then receive one message from every rank we are
	// linked to. The send-first pattern cannot deadlock here because each
	// rank posts at most one message per peer before receiving, well
	// within comm's per-pair queue capacity; a send CAN block once a
	// pair's queue fills (see comm.DefaultMailboxCapacity), in which case the
	// blocked send stays abortable and watchdog-visible rather than
	// silently hanging.
	for di, dst := range e.dsts {
		// One freshly allocated payload per destination, at its exact
		// length: links to the same rank concatenate in link order,
		// particles in local order — the same message content a per-link
		// bucketing would build. route counts its particles; the copy
		// re-applies each link's shift, the same Add the containment test
		// made.
		hits := e.route(di)
		var payload []Particle
		if n := len(hits) - len(e.linksFor[di]); n > 0 {
			payload = make([]Particle, 0, n)
			for _, li := range e.linksFor[di] {
				shift := e.links[li].shift
				for ; hits[0] >= 0; hits = hits[1:] {
					p := e.boundary[hits[0]]
					payload = append(payload, Particle{ID: p.ID, Pos: p.Pos.Add(shift)})
				}
				hits = hits[1:]
			}
		}
		w.Send(rank, dst, tagExchange, payload)
	}
	total := 0
	for i, src := range e.dsts {
		e.batches[i] = w.Recv(rank, src, tagExchange).([]Particle)
		total += len(e.batches[i])
	}
	if cap(e.ghosts) < total {
		e.ghosts = make([]Particle, 0, total)
	}
	e.ghosts = e.ghosts[:0]
	for i, batch := range e.batches {
		e.ghosts = append(e.ghosts, batch...)
		e.batches[i] = nil // the batch is the sender's allocation; let it go
	}
	return e.ghosts
}

// route records, link by link, the boundary index of every candidate
// that lands in one of destination di's link targets once shifted into
// that link's frame, each link's run ended by -1. It reuses e.hits, which
// Exchange sizes from the boundary set: one destination's hits outgrow it
// only where several images of a particle reach the same block.
func (e *Exchanger) route(di int) []int32 {
	hits := e.hits[:0]
	for _, li := range e.linksFor[di] {
		shift, target := e.links[li].shift, e.targets[li]
		for bi, p := range e.boundary {
			if target.Contains(p.Pos.Add(shift)) {
				hits = append(hits, int32(bi))
			}
		}
		hits = append(hits, -1)
	}
	e.hits = hits
	return hits
}

// PartitionParticles assigns each particle to the rank whose block contains
// it, returning one slice per rank. Positions must lie within the domain.
func PartitionParticles(d *Decomposition, particles []Particle) [][]Particle {
	return PartitionParticlesAppend(d, particles, ResetPartition(d, nil))
}

// ResetPartition returns buf resized to d.NumBlocks() ranks with every
// per-rank slice emptied (capacity retained; nil starts fresh), ready for
// PartitionParticlesAppend calls: a persistent session partitions each
// step's particles without reallocating the per-rank arrays once they have
// grown to the working-set size.
func ResetPartition(d *Decomposition, buf [][]Particle) [][]Particle {
	n := d.NumBlocks()
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([][]Particle, n-cap(buf))...)
	}
	buf = buf[:n]
	for r := range buf {
		buf[r] = buf[r][:0]
	}
	return buf
}

// PartitionParticlesAppend partitions particles into buf *without*
// resetting the per-rank slices first. It is the out-of-core streaming
// path: a session partitions a snapshot chunk by chunk (ResetPartition
// once, then one append per chunk), and because chunk concatenation is
// the snapshot in order, the accumulated partition matches
// PartitionParticles of the whole snapshot exactly.
func PartitionParticlesAppend(d *Decomposition, particles []Particle, buf [][]Particle) [][]Particle {
	buf = buf[:d.NumBlocks()]
	for _, p := range particles {
		r := d.Locate(p.Pos)
		buf[r] = append(buf[r], p)
	}
	return buf
}
