package comm

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// abortDeadline bounds how long an aborted world may take to unwind. An
// abort unblocks every rank in microseconds; a blocking site that misses
// the done channel never returns at all.
const abortDeadline = 5 * time.Second

// One rank aborting must unblock every other rank, however it was
// blocked: recv, send into a full queue, the barrier, or asleep in an
// injected send delay. Run is given abortDeadline to return; past it the
// test fails naming the ranks still blocked, instead of hanging until the
// package timeout.
func TestAbortUnblocksAllRanks(t *testing.T) {
	const P = 5
	const slowTag = 77
	cause := errors.New("rank 0 gave up")
	w := NewWorld(P, WithSendDelay(func(src, dst, tag int) time.Duration {
		if tag == slowTag {
			return time.Hour
		}
		return 0
	}))
	blockedIn := [P]string{"", "Recv", "Send into a full queue", "BarrierRank", "a WithSendDelay sleep"}
	var exited [P]atomic.Bool
	errc := make(chan error, 1)
	go func() {
		errc <- w.Run(func(rank int) {
			defer exited[rank].Store(true)
			switch rank {
			case 0:
				time.Sleep(10 * time.Millisecond)
				w.Abort(cause)
			case 1:
				w.Recv(1, 2, 99) // rank 2 never sends with tag for this wait to resolve
			case 2:
				// Fill the pair queue, then block on the next send: rank 3
				// never receives.
				for i := 0; i <= DefaultMailboxCapacity; i++ {
					w.Send(2, 3, 5, []int{i})
				}
			case 3:
				w.BarrierRank(3)
			case 4:
				w.Send(4, 0, slowTag, []int{4}) // delayed an hour before it enqueues
			}
		})
	}()
	var err error
	select {
	case err = <-errc:
	case <-time.After(abortDeadline):
		var stuck []string
		for r := range exited {
			if !exited[r].Load() {
				stuck = append(stuck, fmt.Sprintf("rank %d in %s", r, blockedIn[r]))
			}
		}
		t.Fatalf("Run still blocked %v after the abort: %s", abortDeadline, strings.Join(stuck, ", "))
	}
	if err == nil {
		t.Fatal("aborted world returned nil from Run")
	}
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("err %v does not match ErrWorldAborted", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err %v lost the abort cause", err)
	}
	if w.Err() == nil {
		t.Fatal("Err() nil after abort")
	}
	select {
	case <-w.done:
	default:
		t.Fatal("done not closed after abort")
	}
}

// A panic in one rank's body must come back from Run as a *RankError
// (rank, value, stack) with the peers unblocked — never a process crash.
func TestPanicContainedAsRankError(t *testing.T) {
	const P = 3
	w := NewWorld(P)
	err := w.Run(func(rank int) {
		if rank == 1 {
			panic("tessellation invariant violated")
		}
		w.Recv(rank, 1, 7) // would hang forever without the abort
	})
	if err == nil {
		t.Fatal("Run returned nil despite a rank panic")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("err %v carries no *RankError", err)
	}
	if re.Rank != 1 {
		t.Errorf("RankError.Rank = %d, want 1", re.Rank)
	}
	if re.Value != "tessellation invariant violated" {
		t.Errorf("RankError.Value = %v", re.Value)
	}
	if len(re.Stack) == 0 || !strings.Contains(string(re.Stack), "fault_test") {
		t.Errorf("RankError.Stack does not capture the failing goroutine")
	}
	if !errors.Is(err, ErrWorldAborted) {
		t.Errorf("contained panic error %v does not match ErrWorldAborted", err)
	}
}

// A rank panicking with an error value keeps that error matchable through
// the containment layers via errors.Is/As.
func TestRankErrorUnwrapsErrorValue(t *testing.T) {
	sentinel := errors.New("disk full")
	w := NewWorld(2)
	err := w.Run(func(rank int) {
		if rank == 0 {
			panic(sentinel)
		}
		w.Recv(rank, 0, 1)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err %v lost the panicked error value", err)
	}
}

// The watchdog must convert a mismatched collective (one rank missing)
// into a StallError wait-for dump instead of a hang, promptly.
func TestWatchdogDetectsMismatchedCollective(t *testing.T) {
	const P = 3
	w := NewWorld(P, WithWatchdog(50*time.Millisecond))
	start := time.Now()
	err := w.Run(func(rank int) {
		if rank == 2 {
			return // "forgot" to join the collective
		}
		Allgather(w, rank, rank)
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("mismatched collective did not abort")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err %v carries no *StallError", err)
	}
	if !errors.Is(err, ErrWorldAborted) {
		t.Errorf("stall error %v does not match ErrWorldAborted", err)
	}
	if len(se.Waits) != P {
		t.Fatalf("stall dump has %d rows, want %d", len(se.Waits), P)
	}
	if se.Waits[2].State != "exited" {
		t.Errorf("rank 2 state %q, want exited", se.Waits[2].State)
	}
	blocked := 0
	for _, rw := range se.Waits[:2] {
		if rw.State == "send" || rw.State == "recv" {
			blocked++
			if rw.Peer < 0 || rw.Peer >= P {
				t.Errorf("blocked rank %d has no peer attribution: %+v", rw.Rank, rw)
			}
		}
	}
	if blocked == 0 {
		t.Errorf("no blocked rank in dump: %v", se)
	}
	if !strings.Contains(err.Error(), "wait-for graph") {
		t.Errorf("error text lacks the wait-for dump: %v", err)
	}
	// Detection must be bounded: ~timeout plus sampling slack, not minutes.
	if elapsed > 5*time.Second {
		t.Errorf("stall detection took %v", elapsed)
	}
}

// A slow rank (compute, sleep) must NOT trip the watchdog even when the
// quiet period far exceeds the timeout: slow is not stalled.
func TestWatchdogNoFalsePositiveOnSlowRank(t *testing.T) {
	const P = 3
	w := NewWorld(P, WithWatchdog(20*time.Millisecond))
	err := w.Run(func(rank int) {
		if rank == 0 {
			time.Sleep(120 * time.Millisecond) // 6x the timeout
		}
		got := Allgather(w, rank, rank)
		if len(got) != P {
			t.Errorf("rank %d: allgather %v", rank, got)
		}
	})
	if err != nil {
		t.Fatalf("watchdog aborted a merely slow world: %v", err)
	}
}

// A second Run on the same (healthy) world must not inherit stale
// "exited" watchdog state from the first.
func TestWatchdogAcrossRuns(t *testing.T) {
	w := NewWorld(2, WithWatchdog(25*time.Millisecond))
	for i := 0; i < 2; i++ {
		err := w.Run(func(rank int) {
			time.Sleep(60 * time.Millisecond)
			w.BarrierRank(rank)
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// Self-send overflow is a guaranteed deadlock and must fail fast with an
// actionable diagnostic instead of blocking forever.
func TestSelfSendOverflowPanics(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(rank int) {
		if rank != 0 {
			return
		}
		for i := 0; i <= DefaultMailboxCapacity; i++ {
			w.Send(0, 0, 1, []int{i}) // the last send overflows the queue
		}
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("self-send overflow err %v carries no *RankError", err)
	}
	msg, ok := re.Value.(string)
	if !ok || !strings.Contains(msg, "self-send overflow") ||
		!strings.Contains(msg, "drain with Recv") {
		t.Fatalf("diagnostic %v lacks the overflow guidance", re.Value)
	}
}

// A rank can post exactly DefaultMailboxCapacity sends to one peer without
// blocking even when the peer is not yet receiving.
func TestMailboxCapacityOption(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(rank int) {
		if rank == 0 {
			for i := 0; i < DefaultMailboxCapacity; i++ {
				w.Send(0, 1, 1, []int{i})
			}
		} else {
			time.Sleep(10 * time.Millisecond)
			for i := 0; i < DefaultMailboxCapacity; i++ {
				got := w.Recv(1, 0, 1).([]int)
				if got[0] != i {
					t.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWithWatchdogRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithWatchdog(0) did not panic")
		}
	}()
	WithWatchdog(0)
}

// Abort is idempotent: only the first cause wins.
func TestAbortFirstCauseWins(t *testing.T) {
	w := NewWorld(2)
	first := errors.New("first")
	w.Abort(first)
	w.Abort(errors.New("second"))
	if !errors.Is(w.Err(), first) {
		t.Fatalf("Err() = %v, want first cause", w.Err())
	}
}

// With the watchdog disabled and no recorder, the point-to-point fast
// path must not allocate (the containment machinery is free when idle).
func TestDisabledFaultPathZeroAlloc(t *testing.T) {
	w := NewWorld(1)
	payload := any([]int64{1, 2, 3}) // pre-boxed: the payload's own boxing is not comm's cost
	allocs := testing.AllocsPerRun(1000, func() {
		w.Send(0, 0, 1, payload)
		w.Recv(0, 0, 1)
	})
	if allocs != 0 {
		t.Errorf("disabled-watchdog send/recv pair allocates %g objects, want 0", allocs)
	}
}
