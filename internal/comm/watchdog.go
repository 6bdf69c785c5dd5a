package comm

import (
	"sync"
	"time"
)

// The stall watchdog (armed with WithWatchdog) turns a silent hang into a
// structured abort. Every unbounded blocking operation registers its wait
// (who waits on whom, in which op, with which tag) in a per-rank slot; a
// monitor goroutine started by Run samples the slots and declares a
// global stall when every rank has been continuously blocked (or has
// exited) with zero state changes for the configured timeout.
//
// Soundness: a stall is declared only from a state that cannot resolve
// itself. Registered waits are unbounded channel/condvar operations, so
// they complete only through another rank's action; if every rank is
// blocked in one (or has exited) and no slot's sequence number changed
// across the whole window, no rank acted, and none ever will — the state
// is absorbing. Slow compute, time.Sleep and injected delays are
// deliberately NOT registered: a rank in any of those samples as
// "running", which suppresses the verdict. The watchdog therefore never
// aborts a world that is merely slow.

type waitOp uint8

const (
	waitNone waitOp = iota // running (not in a registered blocking op)
	waitSend
	waitRecv
	waitBarrier
	waitExited // rank's body returned
)

func (op waitOp) String() string {
	switch op {
	case waitSend:
		return "send"
	case waitRecv:
		return "recv"
	case waitBarrier:
		return "barrier"
	case waitExited:
		return "exited"
	default:
		return "running"
	}
}

// waitSlot is one rank's published blocked state. Each slot is written
// only by its own rank's goroutine and read by the monitor; the mutex
// makes each (op, peer, tag, since, seq) tuple atomic as a unit.
type waitSlot struct {
	mu    sync.Mutex
	op    waitOp
	peer  int
	tag   int
	since time.Time
	// seq increments on every state change, so the monitor can tell "the
	// same wait, still pending" from "a new wait that looks identical".
	seq uint64

	_ [64]byte // keep adjacent ranks' slots off one cache line
}

type watchdog struct {
	w       *World
	timeout time.Duration
	slots   []waitSlot
}

func newWatchdog(w *World, timeout time.Duration) *watchdog {
	return &watchdog{w: w, timeout: timeout, slots: make([]waitSlot, w.size)}
}

// reset marks every rank running; Run calls it before launching bodies so
// slots left "exited" by a previous Run do not leak into this one.
func (wd *watchdog) reset() {
	for i := range wd.slots {
		s := &wd.slots[i]
		s.mu.Lock()
		s.op = waitNone
		s.seq++
		s.mu.Unlock()
	}
}

// enterWait publishes that rank is about to block in op. Safe on a nil
// watchdog (the disabled fast path).
func (wd *watchdog) enterWait(rank int, op waitOp, peer, tag int) {
	if wd == nil {
		return
	}
	s := &wd.slots[rank]
	s.mu.Lock()
	s.op, s.peer, s.tag, s.since = op, peer, tag, time.Now()
	s.seq++
	s.mu.Unlock()
}

// exitWait publishes that rank's blocking op completed (or unwound).
func (wd *watchdog) exitWait(rank int) {
	if wd == nil {
		return
	}
	s := &wd.slots[rank]
	s.mu.Lock()
	s.op = waitNone
	s.seq++
	s.mu.Unlock()
}

// markExited records that rank's body returned; an exited rank can never
// unblock a peer, so it participates in the stall verdict.
func (wd *watchdog) markExited(rank int) {
	if wd == nil {
		return
	}
	s := &wd.slots[rank]
	s.mu.Lock()
	s.op = waitExited
	s.seq++
	s.mu.Unlock()
}

// sample reads every slot once and reports whether all ranks are blocked
// or exited, whether at least one is blocked, the per-rank sequence
// numbers, and the wait-for rows for a potential dump.
func (wd *watchdog) sample(now time.Time, seqs []uint64, waits []RankWait) (allStuck, anyBlocked bool) {
	allStuck = true
	for i := range wd.slots {
		s := &wd.slots[i]
		s.mu.Lock()
		op, peer, tag, since, seq := s.op, s.peer, s.tag, s.since, s.seq
		s.mu.Unlock()
		seqs[i] = seq
		rw := RankWait{Rank: i, State: op.String(), Peer: -1}
		switch op {
		case waitNone:
			allStuck = false
		case waitExited:
		default:
			anyBlocked = true
			rw.For = now.Sub(since)
			if op != waitBarrier {
				rw.Peer, rw.Tag = peer, tag
			}
		}
		waits[i] = rw
	}
	return allStuck, anyBlocked
}

// start launches the monitor goroutine and returns a function that stops
// it and waits for it to exit (so a finished Run leaves no monitor
// behind).
func (wd *watchdog) start() (stop func()) {
	stopCh := make(chan struct{})
	exited := make(chan struct{})
	go wd.monitor(stopCh, exited)
	return func() {
		close(stopCh)
		<-exited
	}
}

func (wd *watchdog) monitor(stop <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	interval := wd.timeout / 8
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	n := len(wd.slots)
	seqs := make([]uint64, n)
	prev := make([]uint64, n)
	waits := make([]RankWait, n)
	var stuckSince time.Time // zero: not currently in an all-stuck window
	havePrev := false

	for {
		select {
		case <-stop:
			return
		case <-wd.w.done:
			return
		case <-ticker.C:
		}
		now := time.Now()
		allStuck, anyBlocked := wd.sample(now, seqs, waits)
		unchanged := havePrev
		for i := range seqs {
			if !havePrev || seqs[i] != prev[i] {
				unchanged = false
			}
		}
		copy(prev, seqs)
		havePrev = true

		if !(allStuck && anyBlocked && unchanged) {
			stuckSince = time.Time{}
			continue
		}
		if stuckSince.IsZero() {
			stuckSince = now
			continue
		}
		if now.Sub(stuckSince) < wd.timeout {
			continue
		}
		dump := make([]RankWait, n)
		copy(dump, waits)
		wd.w.Abort(&StallError{Timeout: wd.timeout, Waits: dump})
		return
	}
}
