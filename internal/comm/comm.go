// Package comm is the message-passing substrate that stands in for MPI in
// this reproduction. A World of P ranks runs one goroutine per rank; each
// rank owns its data privately and all inter-rank data movement goes through
// explicit messages, mirroring the distributed-memory discipline of the
// paper's Blue Gene/P runs.
//
// Payloads are passed by reference for speed, but by convention the sender
// relinquishes ownership of a sent buffer — the helpers in the diy package
// always send freshly allocated slices, so no two ranks ever mutate the same
// memory. Collectives (BarrierRank, Allreduce, Allgather, Gather, Bcast) are
// built from the same point-to-point layer.
//
// # Failure model
//
// Because the tessellation runs in situ inside a host simulation, the
// substrate must never take the whole process down or hang it silently:
//
//   - A world can be aborted (explicitly via Abort, or implicitly when a
//     rank's body panics inside Run, or by the stall watchdog). Aborting
//     closes a world-level done channel that every blocking operation —
//     Send, Recv, the collectives, the barrier — selects on, so one rank's
//     failure unblocks every other rank instead of deadlocking it.
//   - Run recovers per-rank panics into a *RankError (rank, value, stack),
//     aborts the world so peers unwind, and returns the abort cause as an
//     error. The process survives.
//   - An opt-in stall watchdog (WithWatchdog) samples per-rank blocked
//     state and aborts with a *StallError carrying a wait-for-graph dump
//     when no rank has made progress for the configured timeout.
//
// Operations that unblock due to an abort panic with the world's
// *AbortError; Run recognizes and swallows those secondary unwinds, so the
// only error that surfaces is the original cause.
//
// TestAbortUnblocksAllRanks holds that guarantee for every blocking site:
// a receive, send or injected delay that stops selecting on done fails it
// within seconds, naming the rank still blocked.
package comm

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultMailboxCapacity is the per-pair message queue depth. Sends block
// (abortably) when the pair's queue is full, so "post sends first, then
// receive" patterns are deadlock-free only while each rank's outstanding
// traffic to one peer stays within this bound.
const DefaultMailboxCapacity = 64

// World is a communicator over Size ranks. Create one with NewWorld, then
// launch one goroutine per rank with Run.
type World struct {
	size int
	// mail[dst][src] is the queue of messages from src to dst. Per-pair
	// queues preserve MPI's pairwise ordering guarantee.
	mail []map[int]chan message

	barrier *barrier

	// done is closed by the first Abort; every blocking operation selects
	// on it so an aborted world unblocks all ranks.
	done      chan struct{}
	abortOnce sync.Once
	// abortErr is written exactly once (inside abortOnce, before done is
	// closed, which publishes it) and read only after observing done
	// closed.
	abortErr *AbortError

	// wd is the opt-in stall watchdog (nil when disabled: the hot path
	// then costs one pointer test per operation).
	wd *watchdog

	// sendDelay, when set (fault injection), returns an artificial
	// delivery delay applied before each Send enqueues its message.
	sendDelay func(src, dst, tag int) time.Duration

	// rec, when set, counts every message and collective through the
	// observability layer. A nil recorder costs one pointer test per
	// operation (obs methods no-op on nil receivers).
	rec *obs.Recorder
}

type message struct {
	tag     int
	payload any
}

// Option configures a World at construction time.
type Option func(*World)

// WithWatchdog arms the stall watchdog: a monitor goroutine (started by
// Run) that samples which ranks are blocked in which operation and aborts
// the world with a *StallError wait-for dump when every rank has been
// blocked (or exited) with no progress for the given timeout. Timeout
// must be positive.
//
// The watchdog only ever fires on a genuine deadlock: it requires every
// rank to sit in an unbounded blocking operation (send, recv, or
// rank-attributed barrier) or to have exited, continuously, for the whole
// window. A rank that is merely slow — computing or sleeping — counts as
// running and suppresses the abort.
func WithWatchdog(timeout time.Duration) Option {
	if timeout <= 0 {
		panic(fmt.Sprintf("comm: watchdog timeout %v", timeout))
	}
	return func(w *World) { w.wd = newWatchdog(w, timeout) }
}

// WithSendDelay installs a delivery-delay hook consulted before every
// Send enqueues its message: the fault-injection layer uses it to model
// slow links deterministically. The hook runs on the sending rank's
// goroutine; a nil hook or zero return means no delay.
func WithSendDelay(f func(src, dst, tag int) time.Duration) Option {
	return func(w *World) { w.sendDelay = f }
}

// NewWorld returns a communicator for size ranks. It panics if size <= 0.
func NewWorld(size int, opts ...Option) *World {
	if size <= 0 {
		panic(fmt.Sprintf("comm: world size %d", size))
	}
	w := &World{
		size:    size,
		barrier: newBarrier(size),
		done:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(w)
	}
	w.mail = make([]map[int]chan message, size)
	for dst := 0; dst < size; dst++ {
		m := make(map[int]chan message, size)
		for src := 0; src < size; src++ {
			m[src] = make(chan message, DefaultMailboxCapacity)
		}
		w.mail[dst] = m
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetRecorder attaches an observability recorder sized for this world;
// pass nil to disable. Set it before Run starts — the field is read
// concurrently by every rank afterwards. It panics on a size mismatch,
// which indicates the recorder was built for a different world.
func (w *World) SetRecorder(r *obs.Recorder) {
	if r != nil && r.Ranks() != w.size {
		panic(fmt.Sprintf("comm: recorder for %d ranks attached to world of %d", r.Ranks(), w.size))
	}
	w.rec = r
}

// Abort kills the world: the first call records cause (wrapped in an
// *AbortError) and unblocks every rank waiting in a Send, Recv,
// collective, or barrier; those operations unwind their goroutines by
// panicking with the *AbortError, which Run recognizes and swallows.
// Later calls are no-ops. A nil cause records the bare sentinel.
func (w *World) Abort(cause error) {
	w.abortOnce.Do(func() {
		w.abortErr = &AbortError{Cause: cause}
		close(w.done)
		w.barrier.abort()
	})
}

// Err returns the abort error (*AbortError) if the world has been
// aborted, nil otherwise.
func (w *World) Err() error {
	select {
	case <-w.done:
		return w.abortErr
	default:
		return nil
	}
}

// abortUnwind panics with the world's abort error; called only after
// observing done closed, so Err is never nil here.
func (w *World) abortUnwind() {
	panic(w.abortErr)
}

// Run executes body(rank) on size goroutines, one per rank, and waits for
// all of them to finish. It is the moral equivalent of mpiexec, with the
// fault containment mpiexec does not give you: a panic in one rank's body
// is recovered into a *RankError, the world is aborted so every other
// rank unblocks, and the abort cause is returned. Run returns nil when
// all ranks complete normally. (Callers that predate the failure model
// may ignore the return value; a fault-free run behaves exactly as
// before.)
func (w *World) Run(body func(rank int)) error {
	if w.wd != nil {
		w.wd.reset()
		stopMonitor := w.wd.start()
		defer stopMonitor()
	}
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if w.wd != nil {
					w.wd.markExited(rank)
				}
				v := recover()
				if v == nil {
					return
				}
				if ae, ok := v.(*AbortError); ok && ae == w.Err() {
					return // secondary unwind of an already-aborted world
				}
				w.Abort(&RankError{Rank: rank, Value: v, Stack: debug.Stack()})
			}()
			body(rank)
		}(r)
	}
	wg.Wait()
	return w.Err()
}

// Send delivers payload from rank src to rank dst with the given tag.
// It blocks (abortably) when the per-pair queue is full. A self-send into
// a full queue is a guaranteed deadlock — the sender is the only consumer
// of its own mailbox — and panics immediately with a diagnostic instead
// of hanging.
func (w *World) Send(src, dst, tag int, payload any) {
	w.checkRank(src)
	w.checkRank(dst)
	if w.sendDelay != nil {
		if d := w.sendDelay(src, dst, tag); d > 0 {
			w.sleepAbortable(d)
		}
	}
	if w.rec != nil {
		w.rec.CountSend(src, dst, obs.PayloadBytes(payload))
	}
	ch := w.mail[dst][src]
	select {
	case ch <- message{tag: tag, payload: payload}:
		return
	default:
	}
	// Queue full: the blocking path.
	if src == dst {
		panic(fmt.Sprintf("comm: rank %d self-send overflow: its own mailbox is full "+
			"(capacity %d, tag %d) and the sender is the queue's only consumer — guaranteed deadlock; "+
			"drain with Recv before posting more", src, DefaultMailboxCapacity, tag))
	}
	w.wd.enterWait(src, waitSend, dst, tag)
	select {
	case ch <- message{tag: tag, payload: payload}:
		w.wd.exitWait(src)
	case <-w.done:
		w.wd.exitWait(src)
		w.abortUnwind()
	}
}

// Recv receives the next message from src addressed to dst with the given
// tag. Messages between a fixed (src, dst) pair are received in send order;
// a tag mismatch panics, as it indicates a protocol error in the caller
// (this substrate has no out-of-order matching, and none is needed by DIY's
// regular exchange patterns). The receive is counted before the tag check,
// so the byte/message conservation invariant (Σ sent == Σ received per
// pair) holds even on the error path. If the world is aborted while Recv
// blocks, it unwinds with the abort error instead of hanging.
func (w *World) Recv(dst, src, tag int) any {
	w.checkRank(src)
	w.checkRank(dst)
	ch := w.mail[dst][src]
	var msg message
	select {
	case msg = <-ch:
	default:
		w.wd.enterWait(dst, waitRecv, src, tag)
		select {
		case msg = <-ch:
			w.wd.exitWait(dst)
		case <-w.done:
			w.wd.exitWait(dst)
			w.abortUnwind()
		}
	}
	if w.rec != nil {
		w.rec.CountRecv(dst, src, obs.PayloadBytes(msg.payload))
	}
	if msg.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected tag %d from %d, got %d", dst, tag, src, msg.tag))
	}
	return msg.payload
}

// sleepAbortable sleeps for d or until the world aborts, whichever comes
// first (an injected delay must not outlive the world it delays).
func (w *World) sleepAbortable(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-w.done:
		w.abortUnwind()
	}
}

func (w *World) checkRank(r int) {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0, %d)", r, w.size))
	}
}

// BarrierRank blocks until all ranks have entered it (or unwinds if the
// world aborts). The time the calling rank spends blocked (its
// load-imbalance exposure) is recorded as barrier wait when a recorder is
// attached, and the wait is visible to the stall watchdog.
func (w *World) BarrierRank(rank int) {
	w.checkRank(rank)
	if w.rec == nil {
		w.wd.enterWait(rank, waitBarrier, -1, 0)
		ok := w.barrier.await()
		w.wd.exitWait(rank)
		if !ok {
			w.abortUnwind()
		}
		return
	}
	t0 := time.Now()
	w.wd.enterWait(rank, waitBarrier, -1, 0)
	ok := w.barrier.await()
	w.wd.exitWait(rank)
	if !ok {
		w.abortUnwind()
	}
	w.rec.AddBarrierWait(rank, time.Since(t0))
}

type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	count   int
	gen     int
	aborted bool
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await returns true when the barrier completed and false when the world
// was aborted while waiting (callers unwind).
func (b *barrier) await() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return false
	}
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	return gen != b.gen // generation advanced: completed before any abort
}

// abort wakes every waiter; they observe the flag and unwind.
func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Collective tags occupy a reserved range well above user tags.
const (
	tagGather = 1 << 20
	tagBcast  = 1<<20 + 1
)

// Collective accounting convention: every rank records exactly one
// CountCollective per collective operation, firing when the rank's role
// in the transfer completes, with the byte size of the rank's own payload
// in that operation — its contributed value for Gather (root included),
// the broadcast value for Bcast. Allgather and Allreduce are composed of
// one Gather plus one Bcast and therefore record two participations per
// rank.

// Gather collects each rank's value at root, in rank order. Non-root ranks
// receive nil.
func Gather[T any](w *World, rank, root int, value T) []T {
	if rank != root {
		w.Send(rank, root, tagGather, value)
		if w.rec != nil {
			w.rec.CountCollective(rank, obs.PayloadBytes(value))
		}
		return nil
	}
	out := make([]T, w.size)
	out[root] = value
	for src := 0; src < w.size; src++ {
		if src == root {
			continue
		}
		out[src] = w.Recv(root, src, tagGather).(T)
	}
	if w.rec != nil {
		w.rec.CountCollective(rank, obs.PayloadBytes(value))
	}
	return out
}

// Bcast distributes root's value to every rank and returns it.
func Bcast[T any](w *World, rank, root int, value T) T {
	if rank == root {
		for dst := 0; dst < w.size; dst++ {
			if dst != root {
				w.Send(root, dst, tagBcast, value)
			}
		}
		if w.rec != nil {
			w.rec.CountCollective(rank, obs.PayloadBytes(value))
		}
		return value
	}
	v := w.Recv(rank, root, tagBcast).(T)
	if w.rec != nil {
		w.rec.CountCollective(rank, obs.PayloadBytes(v))
	}
	return v
}

// Allgather collects each rank's value on every rank, in rank order.
func Allgather[T any](w *World, rank int, value T) []T {
	all := Gather(w, rank, 0, value)
	return Bcast(w, rank, 0, all)
}

// Allreduce combines every rank's value with op and returns the result on
// all ranks. Evaluation is a left fold in fixed ascending rank order —
// identical on every rank — so op must be associative for the result to
// be grouping-independent, but it need not be commutative: operands are
// never reordered.
func Allreduce[T any](w *World, rank int, value T, op func(a, b T) T) T {
	all := Allgather(w, rank, value)
	acc := all[0]
	for _, v := range all[1:] {
		acc = op(acc, v)
	}
	return acc
}
