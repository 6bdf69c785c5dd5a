package comm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewWorld(0)
}

func TestRunExecutesAllRanks(t *testing.T) {
	w := NewWorld(8)
	var count int32
	seen := make([]int32, 8)
	w.Run(func(rank int) {
		atomic.AddInt32(&count, 1)
		atomic.StoreInt32(&seen[rank], 1)
	})
	if count != 8 {
		t.Errorf("ran %d ranks, want 8", count)
	}
	for r, s := range seen {
		if s != 1 {
			t.Errorf("rank %d did not run", r)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(rank int) {
		if rank == 0 {
			w.Send(0, 1, 7, []int{1, 2, 3})
		} else {
			got := w.Recv(1, 0, 7).([]int)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestPairwiseOrdering(t *testing.T) {
	w := NewWorld(2)
	const n = 100
	w.Run(func(rank int) {
		if rank == 0 {
			for i := 0; i < n; i++ {
				w.Send(0, 1, 1, i)
			}
		} else {
			for i := 0; i < n; i++ {
				got := w.Recv(1, 0, 1).(int)
				if got != i {
					t.Errorf("message %d arrived as %d", i, got)
					return
				}
			}
		}
	})
}

// A tag mismatch is a protocol error and panics, but the mismatched message
// still moved bytes: it is counted before the tag check, so conservation
// (Σ sent == Σ received) holds on the error path too.
func TestRecvTagMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	rec := obs.NewRecorder(2)
	w.SetRecorder(rec)
	w.Send(0, 1, 5, []int64{42})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on tag mismatch")
		}
		s := rec.Snapshot()
		if s.TotalSentMsgs != 1 || s.TotalRecvdMsgs != 1 {
			t.Errorf("conservation broken on the mismatch path: sent %d msgs, received %d",
				s.TotalSentMsgs, s.TotalRecvdMsgs)
		}
		if s.TotalSentBytes == 0 || s.TotalSentBytes != s.TotalRecvdBytes {
			t.Errorf("sent %d bytes, received %d", s.TotalSentBytes, s.TotalRecvdBytes)
		}
	}()
	w.Recv(1, 0, 6)
}

func TestBarrierSynchronizes(t *testing.T) {
	const p = 6
	w := NewWorld(p)
	var phase1 int32
	fail := make(chan string, p)
	w.Run(func(rank int) {
		if rank == 0 {
			time.Sleep(20 * time.Millisecond) // straggler
		}
		atomic.AddInt32(&phase1, 1)
		w.BarrierRank(rank)
		if got := atomic.LoadInt32(&phase1); got != p {
			fail <- "barrier released before all ranks arrived"
		}
	})
	select {
	case msg := <-fail:
		t.Error(msg)
	default:
	}
}

func TestBarrierReusable(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	var counter int32
	w.Run(func(rank int) {
		for round := 0; round < 10; round++ {
			atomic.AddInt32(&counter, 1)
			w.BarrierRank(rank)
			want := int32((round + 1) * p)
			if got := atomic.LoadInt32(&counter); got != want {
				t.Errorf("round %d: counter %d, want %d", round, got, want)
				return
			}
			w.BarrierRank(rank)
		}
	})
}

func TestGather(t *testing.T) {
	const p = 5
	w := NewWorld(p)
	var mu sync.Mutex
	var rootResult []int
	w.Run(func(rank int) {
		res := gather(w, rank, 2, rank*10)
		if rank == 2 {
			mu.Lock()
			rootResult = res
			mu.Unlock()
		} else if res != nil {
			t.Errorf("non-root rank %d got %v", rank, res)
		}
	})
	for r := 0; r < p; r++ {
		if rootResult[r] != r*10 {
			t.Errorf("gathered[%d] = %d", r, rootResult[r])
		}
	}
}

func TestBcast(t *testing.T) {
	const p = 7
	w := NewWorld(p)
	got := make([]string, p)
	w.Run(func(rank int) {
		v := "default"
		if rank == 3 {
			v = "hello"
		}
		got[rank] = bcast(w, rank, 3, v)
	})
	for r := 0; r < p; r++ {
		if got[r] != "hello" {
			t.Errorf("rank %d got %q", r, got[r])
		}
	}
}

func TestAllgather(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	results := make([][]int, p)
	w.Run(func(rank int) {
		results[rank] = Allgather(w, rank, rank+1)
	})
	for r := 0; r < p; r++ {
		for i := 0; i < p; i++ {
			if results[r][i] != i+1 {
				t.Errorf("rank %d: allgather[%d] = %d", r, i, results[r][i])
			}
		}
	}
}

func TestManyRanksStress(t *testing.T) {
	const p = 32
	w := NewWorld(p)
	rng := rand.New(rand.NewSource(23))
	delays := make([]time.Duration, p)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(3)) * time.Millisecond
	}
	sums := make([]int64, p)
	w.Run(func(rank int) {
		time.Sleep(delays[rank])
		// Everyone exchanges with everyone via allgather; then reduce.
		all := Allgather(w, rank, int64(rank*rank))
		var s int64
		for _, v := range all {
			s += v
		}
		sums[rank] = s
	})
	var want int64
	for r := 0; r < p; r++ {
		want += int64(r * r)
	}
	for r, s := range sums {
		if s != want {
			t.Errorf("rank %d: sum %d, want %d", r, s, want)
		}
	}
}

func TestRankRangeChecks(t *testing.T) {
	w := NewWorld(2)
	for _, fn := range []func(){
		func() { w.Send(0, 5, 0, nil) },
		func() { w.Send(-1, 0, 0, nil) },
		func() { w.Recv(0, 9, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range rank")
				}
			}()
			fn()
		}()
	}
}

// A persistent tessellation session reuses one world across many
// collective passes; repeated Run calls must leave no residue — mailboxes
// drained, barrier generations consistent, the watchdog re-armed — so a
// later pass behaves exactly like a first one.
func TestWorldReusedAcrossRuns(t *testing.T) {
	w := NewWorld(4, WithWatchdog(2*time.Second))
	for pass := 0; pass < 5; pass++ {
		var sum int64
		err := w.Run(func(rank int) {
			next := (rank + 1) % 4
			w.Send(rank, next, 9, rank*10+pass)
			got := w.Recv(rank, (rank+3)%4, 9).(int)
			w.BarrierRank(rank)
			var total int64
			for _, v := range Allgather(w, rank, int64(got)) {
				total += v
			}
			if rank == 0 {
				atomic.StoreInt64(&sum, total)
			}
		})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		want := int64(0+10+20+30) + int64(4*pass)
		if got := atomic.LoadInt64(&sum); got != want {
			t.Errorf("pass %d: allgathered sum %d, want %d", pass, got, want)
		}
	}
}
