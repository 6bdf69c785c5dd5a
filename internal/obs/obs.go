// Package obs is the always-on observability layer of the tessellation
// stack: per-rank phase spans, communication counters, and a named metrics
// registry, recorded with no locks on any hot path and exportable as Chrome
// trace-event JSON (chrome://tracing / Perfetto).
//
// The design follows the per-phase timers that PARAVT and the multithreaded
// VORO++ extension ship as first-class library features, generalized to the
// paper's per-rank evaluation axes (Table II, Figures 7-10): exchange vs.
// compute vs. output time per rank, message and byte counts per rank pair,
// barrier wait time, and collective payload sizes.
//
// Concurrency model: a Recorder pre-allocates one slot per rank, and every
// mutating method writes only to the slot its rank argument names. Ranks in
// this codebase are goroutines (comm.World.Run), so each slot has exactly
// one writer and recording needs no atomics or locks; the comm-counter
// matrices are likewise sharded so that entry [src][dst] of the send side is
// written only by src and entry [dst][src] of the receive side only by dst.
// Snapshot must be called only after the recorded activity has completed
// (e.g. after World.Run returns, whose WaitGroup provides the
// happens-before edge).
//
// Disabled path: every method has a nil-receiver fast path that returns
// immediately without reading the clock or allocating, so production code
// threads *Recorder values unconditionally and a nil recorder compiles to a
// pointer test. bench_test.go at the repository root and
// TestNilRecorderZeroAlloc here pin the 0 allocs/op contract.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Phase identifies one stage of the per-rank tess pipeline (Figure 5 of the
// paper), plus the communication-substrate phases.
type Phase uint8

const (
	// PhaseExchange is the neighborhood ghost-particle exchange.
	PhaseExchange Phase = iota
	// PhaseGhostMerge is the merge of local+ghost particles into the
	// spatial index that seeds the cell computation.
	PhaseGhostMerge
	// PhaseCompute is the local Voronoi cell construction.
	PhaseCompute
	// PhaseOutput is the collective write of the block meshes.
	PhaseOutput
	// PhaseBarrier aggregates time spent waiting in barriers.
	PhaseBarrier
	// PhaseTriangulate is the Delaunay build of the density pipeline.
	PhaseTriangulate
	// PhaseInterpolate is the DTFE grid interpolation of the density
	// pipeline (one span per rank slab).
	PhaseInterpolate
	// PhaseSpectrum is the power-spectrum / statistics reduction of the
	// density pipeline.
	PhaseSpectrum
	numPhases
)

var phaseNames = [numPhases]string{
	PhaseExchange:    "exchange",
	PhaseGhostMerge:  "ghost-merge",
	PhaseCompute:     "compute",
	PhaseOutput:      "output",
	PhaseBarrier:     "barrier",
	PhaseTriangulate: "triangulate",
	PhaseInterpolate: "interpolate",
	PhaseSpectrum:    "spectrum",
}

// String returns the phase name used in traces and reports.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Span is one timed interval of a phase on one rank. Start is relative to
// the Recorder's epoch.
type Span struct {
	Phase Phase
	Rank  int32
	Start time.Duration
	Dur   time.Duration
}

// SpanMark is the in-flight handle returned by Begin and consumed by End.
// The zero SpanMark (from a nil Recorder) is inert.
type SpanMark struct {
	phase Phase
	valid bool
	start time.Time
}

// CounterID names a registered counter; see RegisterCounter.
type CounterID int

// rankState is the single-writer per-rank recording slot. The trailing pad
// keeps adjacent ranks' hot scalar fields on separate cache lines.
type rankState struct {
	spans      []Span
	phaseTotal [numPhases]time.Duration

	// Comm counters: entry [peer] counts traffic with that rank.
	sentMsgs, sentBytes   []int64
	recvdMsgs, recvdBytes []int64

	barrierWait     time.Duration
	collectives     int64
	collectiveBytes int64

	// counters is a fixed array rather than a slice so that registering a
	// new counter (which happens under the registry mutex) never resizes
	// storage a concurrently-recording rank is writing into.
	counters [MaxCounters]int64

	_ [64]byte
}

// MaxCounters bounds the registry size; RegisterCounter panics beyond it.
const MaxCounters = 24

// Recorder collects spans and counters for a fixed number of ranks.
// The zero value is not usable; a nil *Recorder is the disabled layer.
type Recorder struct {
	epoch time.Time
	ranks []rankState

	// Counter registration happens before concurrent recording starts and
	// is the only mutation guarded by a lock.
	mu           sync.Mutex
	counterNames []string
}

// NewRecorder returns a recorder for a world of ranks ranks.
// It panics if ranks <= 0.
func NewRecorder(ranks int) *Recorder {
	if ranks <= 0 {
		panic(fmt.Sprintf("obs: recorder over %d ranks", ranks))
	}
	r := &Recorder{epoch: time.Now(), ranks: make([]rankState, ranks)}
	for i := range r.ranks {
		s := &r.ranks[i]
		s.sentMsgs = make([]int64, ranks)
		s.sentBytes = make([]int64, ranks)
		s.recvdMsgs = make([]int64, ranks)
		s.recvdBytes = make([]int64, ranks)
	}
	return r
}

// Reset clears all recorded spans, comm counters, and counter values and
// starts a new epoch, keeping the counter-name registry (previously issued
// CounterIDs stay valid) and all per-rank buffer capacity. A persistent
// tessellation session calls it between steps so each pass's snapshot
// covers only its own activity, at steady state without allocating.
//
// Reset must only be called while no recorded activity is in flight — for
// a session, between World.Run invocations, whose WaitGroup provides the
// happens-before edge with every rank's writes.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.epoch = time.Now()
	for i := range r.ranks {
		s := &r.ranks[i]
		s.spans = s.spans[:0]
		s.phaseTotal = [numPhases]time.Duration{}
		for p := range s.sentMsgs {
			s.sentMsgs[p] = 0
			s.sentBytes[p] = 0
			s.recvdMsgs[p] = 0
			s.recvdBytes[p] = 0
		}
		s.barrierWait = 0
		s.collectives = 0
		s.collectiveBytes = 0
		s.counters = [MaxCounters]int64{}
	}
}

// Ranks returns the world size the recorder was built for, or 0 for a nil
// recorder.
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	return len(r.ranks)
}

// Begin opens a span of phase ph on rank. On a nil recorder it returns an
// inert mark without reading the clock.
func (r *Recorder) Begin(rank int, ph Phase) SpanMark {
	if r == nil {
		return SpanMark{}
	}
	return SpanMark{phase: ph, valid: true, start: time.Now()}
}

// End closes a span opened by Begin, recording it on rank.
func (r *Recorder) End(rank int, m SpanMark) {
	if r == nil || !m.valid {
		return
	}
	now := time.Now()
	s := &r.ranks[rank]
	s.spans = append(s.spans, Span{
		Phase: m.phase,
		Rank:  int32(rank),
		Start: m.start.Sub(r.epoch),
		Dur:   now.Sub(m.start),
	})
	s.phaseTotal[m.phase] += now.Sub(m.start)
}

// CountSend records one message of n bytes from src to dst. Only rank src
// may call it (single-writer sharding).
func (r *Recorder) CountSend(src, dst int, n int64) {
	if r == nil {
		return
	}
	s := &r.ranks[src]
	s.sentMsgs[dst]++
	s.sentBytes[dst] += n
}

// CountRecv records the receipt at dst of one message of n bytes from src.
// Only rank dst may call it.
func (r *Recorder) CountRecv(dst, src int, n int64) {
	if r == nil {
		return
	}
	s := &r.ranks[dst]
	s.recvdMsgs[src]++
	s.recvdBytes[src] += n
}

// AddBarrierWait records time rank spent blocked in a barrier.
func (r *Recorder) AddBarrierWait(rank int, d time.Duration) {
	if r == nil {
		return
	}
	s := &r.ranks[rank]
	s.barrierWait += d
	s.phaseTotal[PhaseBarrier] += d
}

// CountCollective records rank's participation in one collective carrying
// n payload bytes.
func (r *Recorder) CountCollective(rank int, n int64) {
	if r == nil {
		return
	}
	s := &r.ranks[rank]
	s.collectives++
	s.collectiveBytes += n
}

// RegisterCounter adds a named per-rank counter to the registry and returns
// its ID; registering an existing name returns its ID, so ranks may call it
// concurrently to resolve well-known names. Per-rank counter storage is
// fixed-size, so registration never perturbs ranks that are already
// counting. Panics past MaxCounters; a nil recorder returns -1 (Count
// ignores it).
func (r *Recorder) RegisterCounter(name string) CounterID {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.counterNames {
		if n == name {
			return CounterID(i)
		}
	}
	if len(r.counterNames) == MaxCounters {
		panic(fmt.Sprintf("obs: more than %d registered counters", MaxCounters))
	}
	r.counterNames = append(r.counterNames, name)
	return CounterID(len(r.counterNames) - 1)
}

// Count adds delta to a registered counter on rank.
func (r *Recorder) Count(rank int, id CounterID, delta int64) {
	if r == nil || id < 0 {
		return
	}
	r.ranks[rank].counters[id] += delta
}

// PhaseBreakdown is the accumulated per-phase wall time of one rank.
type PhaseBreakdown struct {
	Exchange   time.Duration
	GhostMerge time.Duration
	Compute    time.Duration
	Output     time.Duration
	Barrier    time.Duration
	// Density-pipeline phases (zero on tessellation-only steps).
	Triangulate time.Duration
	Interpolate time.Duration
	Spectrum    time.Duration
}

// Get returns the component for a phase.
func (b PhaseBreakdown) Get(p Phase) time.Duration {
	switch p {
	case PhaseExchange:
		return b.Exchange
	case PhaseGhostMerge:
		return b.GhostMerge
	case PhaseCompute:
		return b.Compute
	case PhaseOutput:
		return b.Output
	case PhaseBarrier:
		return b.Barrier
	case PhaseTriangulate:
		return b.Triangulate
	case PhaseInterpolate:
		return b.Interpolate
	case PhaseSpectrum:
		return b.Spectrum
	}
	return 0
}

// RankMetrics is the aggregated view of one rank.
type RankMetrics struct {
	Rank  int
	Phase PhaseBreakdown
	// SentMsgs/SentBytes count messages this rank posted; RecvdMsgs and
	// RecvdBytes count messages it consumed.
	SentMsgs, SentBytes   int64
	RecvdMsgs, RecvdBytes int64
	BarrierWait           time.Duration
	Collectives           int64
	CollectiveBytes       int64
}

// Snapshot is the immutable aggregate of a Recorder: the metrics registry
// view exposed on core.Output and consumed by the trace exporter and the
// EXPERIMENTS tables.
type Snapshot struct {
	Ranks int
	// Spans holds every recorded span, ordered by rank then start time.
	Spans []Span
	// PerRank holds one aggregated row per rank.
	PerRank []RankMetrics
	// SendMsgs[src][dst] / SendBytes[src][dst] count posted messages;
	// RecvMsgs[dst][src] / RecvBytes[dst][src] count consumed ones. A
	// conservation-clean exchange has SendBytes[s][d] == RecvBytes[d][s]
	// for every pair.
	SendMsgs, SendBytes [][]int64
	RecvMsgs, RecvBytes [][]int64
	// Totals over all ranks.
	TotalSentMsgs, TotalSentBytes   int64
	TotalRecvdMsgs, TotalRecvdBytes int64
	// Counters maps each registered counter name to its per-rank values;
	// CounterNames lists the names sorted, for deterministic iteration.
	Counters     map[string][]int64
	CounterNames []string
	// ComputeImbalance is slowest-rank compute time over mean compute time
	// (1.0 = perfectly balanced), the load-imbalance number PARAVT reports.
	ComputeImbalance float64
}

// Snapshot aggregates the recorder. Call only after recorded activity has
// completed. A nil recorder returns nil.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	n := len(r.ranks)
	snap := &Snapshot{
		Ranks:     n,
		PerRank:   make([]RankMetrics, n),
		SendMsgs:  make([][]int64, n),
		SendBytes: make([][]int64, n),
		RecvMsgs:  make([][]int64, n),
		RecvBytes: make([][]int64, n),
		Counters:  make(map[string][]int64, len(r.counterNames)),
	}
	for i := range r.ranks {
		s := &r.ranks[i]
		snap.Spans = append(snap.Spans, s.spans...)
		m := RankMetrics{
			Rank: i,
			Phase: PhaseBreakdown{
				Exchange:    s.phaseTotal[PhaseExchange],
				GhostMerge:  s.phaseTotal[PhaseGhostMerge],
				Compute:     s.phaseTotal[PhaseCompute],
				Output:      s.phaseTotal[PhaseOutput],
				Barrier:     s.phaseTotal[PhaseBarrier],
				Triangulate: s.phaseTotal[PhaseTriangulate],
				Interpolate: s.phaseTotal[PhaseInterpolate],
				Spectrum:    s.phaseTotal[PhaseSpectrum],
			},
			BarrierWait:     s.barrierWait,
			Collectives:     s.collectives,
			CollectiveBytes: s.collectiveBytes,
		}
		snap.SendMsgs[i] = append([]int64(nil), s.sentMsgs...)
		snap.SendBytes[i] = append([]int64(nil), s.sentBytes...)
		snap.RecvMsgs[i] = append([]int64(nil), s.recvdMsgs...)
		snap.RecvBytes[i] = append([]int64(nil), s.recvdBytes...)
		for p := 0; p < n; p++ {
			m.SentMsgs += s.sentMsgs[p]
			m.SentBytes += s.sentBytes[p]
			m.RecvdMsgs += s.recvdMsgs[p]
			m.RecvdBytes += s.recvdBytes[p]
		}
		snap.PerRank[i] = m
		snap.TotalSentMsgs += m.SentMsgs
		snap.TotalSentBytes += m.SentBytes
		snap.TotalRecvdMsgs += m.RecvdMsgs
		snap.TotalRecvdBytes += m.RecvdBytes
	}
	sort.SliceStable(snap.Spans, func(a, b int) bool {
		if snap.Spans[a].Rank != snap.Spans[b].Rank {
			return snap.Spans[a].Rank < snap.Spans[b].Rank
		}
		return snap.Spans[a].Start < snap.Spans[b].Start
	})
	r.mu.Lock()
	names := append([]string(nil), r.counterNames...)
	r.mu.Unlock()
	for id, name := range names {
		vals := make([]int64, n)
		for i := range r.ranks {
			vals[i] = r.ranks[i].counters[id]
		}
		snap.Counters[name] = vals
	}
	sort.Strings(names)
	snap.CounterNames = names
	snap.ComputeImbalance = snap.Imbalance(PhaseCompute)
	return snap
}

// Imbalance returns the load-imbalance ratio of one phase: slowest-rank
// time over mean rank time (1.0 = perfectly balanced, 0 when the phase
// recorded no time). ComputeImbalance is this number for PhaseCompute; the
// generic form lets callers inspect the exchange or output phases the same
// way.
func (s *Snapshot) Imbalance(p Phase) float64 {
	if len(s.PerRank) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, m := range s.PerRank {
		d := m.Phase.Get(p)
		sum += d
		if d > max {
			max = d
		}
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.PerRank))
	return float64(max) / mean
}

// SlowestRank returns the maximum per-rank time of one phase — the number a
// batch scheduler observes and the reduction Table II reports.
func (s *Snapshot) SlowestRank(p Phase) time.Duration {
	var t time.Duration
	for _, m := range s.PerRank {
		if d := m.Phase.Get(p); d > t {
			t = d
		}
	}
	return t
}
