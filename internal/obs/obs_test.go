package obs

import (
	"sync"
	"testing"
	"time"
)

// RecordSpan records an externally timed interval, so tests can build a
// snapshot with exact, sleep-free span times.
func (r *Recorder) RecordSpan(rank int, ph Phase, start, dur time.Duration) {
	if r == nil {
		return
	}
	s := &r.ranks[rank]
	s.spans = append(s.spans, Span{Phase: ph, Rank: int32(rank), Start: start, Dur: dur})
	s.phaseTotal[ph] += dur
}

func TestRecorderSpansAndTotals(t *testing.T) {
	r := NewRecorder(2)
	m := r.Begin(0, PhaseExchange)
	time.Sleep(time.Millisecond)
	r.End(0, m)
	m = r.Begin(1, PhaseCompute)
	r.End(1, m)
	r.RecordSpan(1, PhaseOutput, 5*time.Millisecond, 2*time.Millisecond)

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
		if m.BarrierWait != time.Millisecond {
			t.Errorf("rank %d barrier wait %v", m.Rank, m.BarrierWait)
		}
		if m.Collectives != 1 || m.CollectiveBytes != 64 {
			t.Errorf("rank %d collectives %d/%d", m.Rank, m.Collectives, m.CollectiveBytes)
		}
		if m.Phase.Barrier != time.Millisecond {
			t.Errorf("rank %d barrier phase total %v", m.Rank, m.Phase.Barrier)
		}
	}
}

func TestRegisteredCounters(t *testing.T) {
	r := NewRecorder(2)
	ghosts := r.RegisterCounter("ghosts")
	again := r.RegisterCounter("ghosts")
	if ghosts != again {
		t.Errorf("re-registering returned %d, want %d", again, ghosts)
	}
	cells := r.RegisterCounter("cells")
	r.Count(0, ghosts, 7)
	r.Count(1, ghosts, 5)
	r.Count(1, cells, 100)
	s := r.Snapshot()
	if got := s.Counters["ghosts"]; got[0] != 7 || got[1] != 5 {
		t.Errorf("ghosts = %v", got)
	}
	if got := s.Counters["cells"]; got[0] != 0 || got[1] != 100 {
		t.Errorf("cells = %v", got)
	}
}

func TestComputeImbalance(t *testing.T) {
	r := NewRecorder(2)
	r.RecordSpan(0, PhaseCompute, 0, 30*time.Millisecond)
	r.RecordSpan(1, PhaseCompute, 0, 10*time.Millisecond)
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
		r.Count(0, r.RegisterCounter("x"), 1)
		r.RecordSpan(0, PhaseOutput, 0, time.Second)
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
