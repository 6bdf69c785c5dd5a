package diy

import (
	"maps"
	"slices"

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
// It keeps state for persistent sessions: the link geometry (neighbor
// list, ghost-expanded target bounds, destination-rank coalescing) is
// derived once at construction, and the receive-side buffers (boundary
// candidate set, ghost concatenation) are reused across calls. Outgoing
// message payloads are still freshly allocated every call — a sent buffer
// transfers ownership to the receiver (the comm package's aliasing
// convention), so they are the one thing an exchanger must never retain —
// but sized from the previous call's payload to the same rank, so a step
// allocates each one once instead of growing it by doubling.
//
// The returned ghost slice is valid until the next Exchange call. An
// Exchanger serves one (rank, ghost) pair and is not safe for concurrent
// use.
type Exchanger struct {
	ghost    float64
	targets  []geom.Box // ghost-expanded neighbor bounds, per link
	links    []Neighbor
	dsts     []int   // distinct destination ranks, ascending
	linksFor [][]int // link indices per destination, aligned with dsts
	lastLen  []int   // previous payload length per destination, aligned with dsts

	// prefilterSlack widens the boundary-candidate test by a relative
	// epsilon so float roundoff in the per-link containment test can
	// never make the candidate set miss a particle the exact test would
	// send; candidates are always re-tested exactly per link.
	prefilterSlack float64

	boundary []Particle // retained candidate buffer
	ghosts   []Particle // retained receive buffer
}

// NewExchanger prepares the retained exchange state for one rank of the
// decomposition at the given ghost distance.
func NewExchanger(d *Decomposition, rank int, ghost float64) *Exchanger {
	e := &Exchanger{
		ghost:          ghost,
		links:          d.Neighbors(rank),
		prefilterSlack: 1e-9 * d.Domain.Size().MaxAbs(),
	}
	e.targets = make([]geom.Box, len(e.links))
	for li, nb := range e.links {
		e.targets[li] = d.Block(nb.Rank).Bounds.Expand(ghost)
	}
	// Coalesce links that point at the same rank into one message per
	// destination rank (message count is what the exchange cost tracks),
	// in ascending rank order so the ghost concatenation order is
	// deterministic.
	perRank := map[int][]int{}
	for li, nb := range e.links {
		perRank[nb.Rank] = append(perRank[nb.Rank], li)
	}
	e.dsts = slices.Sorted(maps.Keys(perRank))
	e.linksFor = make([][]int, len(e.dsts))
	e.lastLen = make([]int, len(e.dsts))
	for i, dst := range e.dsts {
		e.linksFor[i] = perRank[dst]
	}
	return e
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
	// neighbor's region if it is within ghost of this block's own
	// boundary, so the 26 per-link containment tests run over the
	// boundary shell only. The slack keeps the set a strict superset
	// under roundoff; the exact per-link test below decides membership,
	// so the sent batches match the unfiltered scan bit for bit.
	myBounds := d.Block(rank).Bounds
	cut := e.ghost + e.prefilterSlack
	e.boundary = e.boundary[:0]
	for _, p := range local {
		if myBounds.InteriorDist(p.Pos) <= cut {
			e.boundary = append(e.boundary, p)
		}
	}

	// Post all sends, then receive one message from every rank we are
	// linked to. The send-first pattern cannot deadlock here because each
	// rank posts at most one message per peer before receiving, well
	// within comm's per-pair queue capacity; a send CAN block once a
	// pair's queue fills (see comm.DefaultMailboxCapacity), in which case the
	// blocked send stays abortable and watchdog-visible rather than
	// silently hanging.
	for di, dst := range e.dsts {
		// One freshly allocated payload per destination: links to the same
		// rank concatenate in link order, particles in local order — the
		// same message content a per-link bucketing would build.
		// Particles move little between steps, so the previous payload's
		// length plus an eighth is the capacity this one needs.
		var payload []Particle
		for _, li := range e.linksFor[di] {
			nb, target := e.links[li], e.targets[li]
			for _, p := range e.boundary {
				q := p.Pos.Add(nb.Shift)
				if target.Contains(q) {
					if payload == nil {
						last := e.lastLen[di]
						payload = make([]Particle, 0, last+last/8+16)
					}
					payload = append(payload, Particle{ID: p.ID, Pos: q})
				}
			}
		}
		e.lastLen[di] = len(payload)
		w.Send(rank, dst, tagExchange, payload)
	}
	e.ghosts = e.ghosts[:0]
	for _, src := range e.dsts {
		batch := w.Recv(rank, src, tagExchange).([]Particle)
		e.ghosts = append(e.ghosts, batch...)
	}
	return e.ghosts
}

// PartitionParticles assigns each particle to the rank whose block contains
// it, returning one slice per rank. Positions must lie within the domain.
func PartitionParticles(d *Decomposition, particles []Particle) [][]Particle {
	out := make([][]Particle, d.NumBlocks())
	for _, p := range particles {
		r := d.Locate(p.Pos)
		out[r] = append(out[r], p)
	}
	return out
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
