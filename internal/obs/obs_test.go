package obs

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// recordAt records a span at an offset from r's epoch, so tests can build
// a snapshot with exact, sleep-free span times.
func recordAt(r *Recorder, rank int, ph Phase, start, dur time.Duration) {
	r.RecordSpan(rank, ph, r.epoch.Add(start), r.epoch.Add(start+dur))
}

func TestRecorderSpansAndTotals(t *testing.T) {
	r := NewRecorder(2)
	m := r.Begin(0, PhaseExchange)
	time.Sleep(time.Millisecond)
	r.End(0, m)
	m = r.Begin(1, PhaseCompute)
	r.End(1, m)
	recordAt(r, 1, PhaseOutput, 5*time.Millisecond, 2*time.Millisecond)

	s := r.Snapshot()
	if s.Ranks != 2 {
		t.Fatalf("Ranks = %d", s.Ranks)
	}
	if len(s.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(s.Spans))
	}
	if s.PerRank[0].Phase.Exchange <= 0 {
		t.Errorf("rank 0 exchange total = %v, want > 0", s.PerRank[0].Phase.Exchange)
	}
	if s.PerRank[1].Phase.Output != 2*time.Millisecond {
		t.Errorf("rank 1 output total = %v, want 2ms", s.PerRank[1].Phase.Output)
	}
	// Spans are ordered by rank then start.
	for i := 1; i < len(s.Spans); i++ {
		a, b := s.Spans[i-1], s.Spans[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Start > b.Start) {
			t.Errorf("spans out of order at %d: %+v then %+v", i, a, b)
		}
	}
	if got := s.SlowestRank(PhaseOutput); got != 2*time.Millisecond {
		t.Errorf("SlowestRank(Output) = %v", got)
	}
}

// Several phases sum per rank before the maximum: rank 0 is slowest at
// merge (3ms) and rank 1 at compute (4ms), so the per-phase maxima sum to
// 7ms, but no rank spent more than rank 1's 1ms + 4ms.
func TestSlowestRankSumsPhasesPerRank(t *testing.T) {
	r := NewRecorder(2)
	recordAt(r, 0, PhaseGhostMerge, 0, 3*time.Millisecond)
	recordAt(r, 0, PhaseCompute, 3*time.Millisecond, time.Millisecond)
	recordAt(r, 1, PhaseGhostMerge, 0, time.Millisecond)
	recordAt(r, 1, PhaseCompute, time.Millisecond, 4*time.Millisecond)
	s := r.Snapshot()
	if got := s.SlowestRank(PhaseGhostMerge, PhaseCompute); got != 5*time.Millisecond {
		t.Errorf("SlowestRank(GhostMerge, Compute) = %v, want 5ms", got)
	}
	if sum := s.SlowestRank(PhaseGhostMerge) + s.SlowestRank(PhaseCompute); sum != 7*time.Millisecond {
		t.Errorf("per-phase maxima sum to %v, want 7ms", sum)
	}
	if got := s.SlowestRank(PhaseCompute); got != 4*time.Millisecond {
		t.Errorf("SlowestRank(Compute) = %v, want 4ms", got)
	}
	if got := s.SlowestRank(PhaseOutput); got != 0 {
		t.Errorf("SlowestRank(Output) = %v, want 0 for an unrecorded phase", got)
	}
}

func TestRecorderCommCounters(t *testing.T) {
	r := NewRecorder(3)
	var wg sync.WaitGroup
	// Each rank records only into its own slot: single-writer sharding.
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for dst := 0; dst < 3; dst++ {
				if dst == rank {
					continue
				}
				r.CountSend(rank, dst, 100)
				r.CountRecv(rank, dst, 100)
			}
			r.AddBarrierWait(rank, time.Millisecond)
			r.CountCollective(rank, 64)
		}(rank)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.TotalSentBytes != 600 || s.TotalRecvdBytes != 600 {
		t.Errorf("totals sent=%d recvd=%d, want 600/600", s.TotalSentBytes, s.TotalRecvdBytes)
	}
	if s.TotalSentMsgs != 6 || s.TotalRecvdMsgs != 6 {
		t.Errorf("msg totals sent=%d recvd=%d, want 6/6", s.TotalSentMsgs, s.TotalRecvdMsgs)
	}
	if s.SendBytes[0][1] != 100 || s.RecvBytes[0][1] != 100 {
		t.Errorf("pair counters: send[0][1]=%d recv[0][1]=%d", s.SendBytes[0][1], s.RecvBytes[0][1])
	}
	if s.SendBytes[0][0] != 0 {
		t.Errorf("self pair counted: %d", s.SendBytes[0][0])
	}
	for _, m := range s.PerRank {
		if m.Collectives != 1 || m.CollectiveBytes != 64 {
			t.Errorf("rank %d collectives %d/%d", m.Rank, m.Collectives, m.CollectiveBytes)
		}
		if m.Phase.Barrier != time.Millisecond {
			t.Errorf("rank %d barrier phase total %v", m.Rank, m.Phase.Barrier)
		}
	}
}

// Every snapshot lists every counter by name, zeros included, and a
// counter's values land on the rank that counted them.
func TestCounters(t *testing.T) {
	r := NewRecorder(2)
	r.Count(0, CounterGhosts, 7)
	r.Count(1, CounterGhosts, 5)
	r.Count(1, CounterSites, 100)
	s := r.Snapshot()
	if got := s.Counters[CounterGhosts.String()]; got[0] != 7 || got[1] != 5 {
		t.Errorf("ghosts = %v", got)
	}
	if got := s.Counters[CounterSites.String()]; got[0] != 0 || got[1] != 100 {
		t.Errorf("sites = %v", got)
	}
	if len(s.CounterNames) != int(numCounters) || len(s.Counters) != int(numCounters) {
		t.Fatalf("snapshot lists %d names, %d counters; want %d", len(s.CounterNames), len(s.Counters), numCounters)
	}
	if !sort.StringsAreSorted(s.CounterNames) {
		t.Errorf("counter names not sorted: %v", s.CounterNames)
	}
	for c := Counter(0); c < numCounters; c++ {
		if vals, ok := s.Counters[c.String()]; c.String() == "" || !ok || len(vals) != 2 {
			t.Errorf("%s: %v, listed %v", c, vals, ok)
		}
	}
	r.Reset()
	if got := r.Snapshot().Counters[CounterGhosts.String()]; got[0] != 0 || got[1] != 0 {
		t.Errorf("ghosts after Reset = %v", got)
	}
}

func TestComputeImbalance(t *testing.T) {
	r := NewRecorder(2)
	recordAt(r, 0, PhaseCompute, 0, 30*time.Millisecond)
	recordAt(r, 1, PhaseCompute, 0, 10*time.Millisecond)
	s := r.Snapshot()
	if want := 1.5; s.ComputeImbalance < want-1e-9 || s.ComputeImbalance > want+1e-9 {
		t.Errorf("imbalance = %v, want %v", s.ComputeImbalance, want)
	}
}

// TestNilRecorderZeroAlloc pins the disabled-instrumentation contract: a
// nil recorder's hooks allocate nothing and are safe to call from any
// path, so production code can thread the recorder unconditionally.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		m := r.Begin(0, PhaseCompute)
		r.End(0, m)
		r.CountSend(0, 1, 128)
		r.CountRecv(1, 0, 128)
		r.AddBarrierWait(0, time.Millisecond)
		r.CountCollective(0, 8)
		r.Count(0, CounterSites, 1)
		r.RecordSpan(0, PhaseOutput, time.Time{}, time.Time{})
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder hooks allocate %v per run, want 0", allocs)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil recorder snapshot should be nil")
	}
	if r.Ranks() != 0 {
		t.Fatal("nil recorder Ranks should be 0")
	}
}

func TestPayloadBytes(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 0},
		{[]byte{1, 2, 3}, 3},
		{"hello", 5},
		{int64(9), 8},
		{true, 1},
		{[]int64{1, 2, 3, 4}, 32},
		{[]float64{1, 2}, 16},
		{[4]int32{}, 16},
		{(*int64)(nil), 0},
	}
	for _, c := range cases {
		if got := PayloadBytes(c.v); got != c.want {
			t.Errorf("PayloadBytes(%#v) = %d, want %d", c.v, got, c.want)
		}
	}
	// A struct slice counts element size deterministically.
	type pt struct {
		ID int64
		X  [3]float64
	}
	if got := PayloadBytes(make([]pt, 10)); got != 320 {
		t.Errorf("struct slice = %d, want 320", got)
	}
	if got := PayloadBytes(&pt{}); got != 32 {
		t.Errorf("struct pointer = %d, want 32", got)
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{
		PhaseExchange:   "exchange",
		PhaseGhostMerge: "ghost-merge",
		PhaseCompute:    "compute",
		PhaseOutput:     "output",
		PhaseBarrier:    "barrier",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Errorf("out of range = %q", got)
	}
}

func TestNewRecorderPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}
