package comm

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// The recorder hooks must count every point-to-point message and every
// collective, with bytes conserved between the send and receive sides.
func TestWorldRecorderCounts(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	rec := obs.NewRecorder(P)
	w.SetRecorder(rec)

	w.Run(func(rank int) {
		// Ring exchange: each rank sends 10 int64s to the next rank.
		next := (rank + 1) % P
		prev := (rank + P - 1) % P
		payload := make([]int64, 10)
		w.Send(rank, next, 7, payload)
		got := w.Recv(rank, prev, 7).([]int64)
		if len(got) != 10 {
			t.Errorf("rank %d: got %d elems", rank, len(got))
		}
		w.BarrierRank(rank)
		var sum int64
		for _, v := range Allgather(w, rank, int64(rank)) {
			sum += v
		}
		if sum != P*(P-1)/2 {
			t.Errorf("rank %d: allgathered sum = %d", rank, sum)
		}
	})

	s := rec.Snapshot()
	if s.TotalSentBytes != s.TotalRecvdBytes {
		t.Errorf("sent %d bytes but received %d", s.TotalSentBytes, s.TotalRecvdBytes)
	}
	if s.TotalSentMsgs != s.TotalRecvdMsgs {
		t.Errorf("sent %d msgs but received %d", s.TotalSentMsgs, s.TotalRecvdMsgs)
	}
	// Pairwise conservation: what src posted to dst, dst consumed from src.
	for src := 0; src < P; src++ {
		for dst := 0; dst < P; dst++ {
			if s.SendBytes[src][dst] != s.RecvBytes[dst][src] {
				t.Errorf("pair (%d -> %d): sent %d, received %d",
					src, dst, s.SendBytes[src][dst], s.RecvBytes[dst][src])
			}
		}
	}
	// The ring leg alone moved 10 int64s per rank; with the Allgather's
	// internal gather/bcast on top the totals must be strictly larger.
	if s.TotalSentBytes <= int64(P*10*8) {
		t.Errorf("total bytes %d do not include collective traffic", s.TotalSentBytes)
	}
	// Every rank participated in the Allgather (gather+bcast) collectives.
	for _, m := range s.PerRank {
		if m.Collectives == 0 {
			t.Errorf("rank %d recorded no collectives", m.Rank)
		}
	}
}

// Collective accounting convention: exactly one CountCollective per rank
// per collective (two for the composed Allgather), recorded with
// the rank's own payload size — so per-rank participation counts are
// decomposition-independent and conservation extends to collectives.
func TestCollectiveAccountingConvention(t *testing.T) {
	const P = 4
	for _, tc := range []struct {
		name string
		body func(w *World, rank int)
		want int64 // collectives recorded per rank
	}{
		{"gather", func(w *World, rank int) { gather(w, rank, 1, int64(rank)) }, 1},
		{"bcast", func(w *World, rank int) { bcast(w, rank, 2, int64(7)) }, 1},
		{"allgather", func(w *World, rank int) { Allgather(w, rank, int64(rank)) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(P)
			rec := obs.NewRecorder(P)
			w.SetRecorder(rec)
			if err := w.Run(func(rank int) { tc.body(w, rank) }); err != nil {
				t.Fatal(err)
			}
			s := rec.Snapshot()
			for _, m := range s.PerRank {
				if m.Collectives != tc.want {
					t.Errorf("rank %d recorded %d collectives, want %d", m.Rank, m.Collectives, tc.want)
				}
				if m.CollectiveBytes <= 0 {
					t.Errorf("rank %d recorded %d collective bytes", m.Rank, m.CollectiveBytes)
				}
			}
			// The point-to-point legs under the collectives stay conserved.
			if s.TotalSentMsgs != s.TotalRecvdMsgs || s.TotalSentBytes != s.TotalRecvdBytes {
				t.Errorf("conservation broken: %d/%d msgs, %d/%d bytes",
					s.TotalSentMsgs, s.TotalRecvdMsgs, s.TotalSentBytes, s.TotalRecvdBytes)
			}
		})
	}
}

// BarrierRank must record wait time for the rank that arrives early.
func TestBarrierRankRecordsWait(t *testing.T) {
	w := NewWorld(2)
	rec := obs.NewRecorder(2)
	w.SetRecorder(rec)
	w.Run(func(rank int) {
		if rank == 1 {
			time.Sleep(20 * time.Millisecond)
		}
		w.BarrierRank(rank)
	})
	s := rec.Snapshot()
	if s.PerRank[0].Phase.Barrier < 10*time.Millisecond {
		t.Errorf("rank 0 barrier wait %v, want >= 10ms", s.PerRank[0].Phase.Barrier)
	}
	if s.PerRank[1].Phase.Barrier > 15*time.Millisecond {
		t.Errorf("rank 1 (late arriver) barrier wait %v, want small", s.PerRank[1].Phase.Barrier)
	}
}

// BarrierRank without a recorder must still synchronize.
func TestBarrierRankNoRecorder(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(rank int) {
		w.BarrierRank(rank)
	})
}

func TestSetRecorderSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size-mismatched recorder did not panic")
		}
	}()
	NewWorld(2).SetRecorder(obs.NewRecorder(3))
}
