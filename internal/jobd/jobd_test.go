package jobd

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	tess "repro"
)

// The event log is append-only with dense sequence numbers, broadcast
// wakeups, and a terminal close.
func TestEventLog(t *testing.T) {
	l := newEventLog()
	evs, closed, changed := l.since(0)
	if len(evs) != 0 || closed {
		t.Fatalf("fresh log since(0) = %d events, closed %v", len(evs), closed)
	}

	// A waiter parked on the change channel wakes on append.
	woke := make(chan struct{})
	go func() {
		<-changed
		close(woke)
	}()
	l.append(Event{Type: "queued"}, false)
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the waiter")
	}

	l.append(Event{Type: "started"}, false)
	l.append(Event{Type: "done"}, true)
	evs, closed, _ = l.since(0)
	if len(evs) != 3 || !closed {
		t.Fatalf("since(0) = %d events, closed %v; want 3, true", len(evs), closed)
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.Time.IsZero() {
			t.Errorf("event %d has zero time", i)
		}
	}
	if evs, _, _ := l.since(2); len(evs) != 1 || evs[0].Type != "done" {
		t.Errorf("since(2) = %+v, want just the done event", evs)
	}
	if evs, closed, _ := l.since(99); len(evs) != 0 || !closed {
		t.Errorf("since past the end = %d events, closed %v", len(evs), closed)
	}
	if evs, _, _ := l.since(-5); len(evs) != 3 {
		t.Errorf("since(-5) = %d events, want full replay", len(evs))
	}
}

// Concurrent tailers all observe the full dense sequence (the -race half
// of the single-writer/many-reader contract).
func TestEventLogConcurrentTailers(t *testing.T) {
	l := newEventLog()
	const total = 100
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := 0
			for {
				evs, closed, changed := l.since(cur)
				for _, e := range evs {
					if e.Seq != cur {
						t.Errorf("tailer saw seq %d at position %d", e.Seq, cur)
						return
					}
					cur++
				}
				if closed {
					if cur != total {
						t.Errorf("tailer finished at %d events, want %d", cur, total)
					}
					return
				}
				<-changed
			}
		}()
	}
	for i := 0; i < total; i++ {
		l.append(Event{Type: "step", Step: i}, i == total-1)
	}
	wg.Wait()
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.QueueCapacity != 16 || c.MaxActive != 2 {
		t.Errorf("defaults = queue %d, active %d; want 16, 2", c.QueueCapacity, c.MaxActive)
	}
	if c.StallTimeout != 30*time.Second {
		t.Errorf("default stall timeout = %v, want 30s", c.StallTimeout)
	}
	if c.RetainBytes != 64<<20 {
		t.Errorf("default retention bound = %d, want 64 MiB", c.RetainBytes)
	}
	// Negative stall timeout means "disable the watchdog", which the
	// engine spells as zero.
	if got := (Config{StallTimeout: -1}).withDefaults().StallTimeout; got != 0 {
		t.Errorf("negative stall timeout normalized to %v, want 0", got)
	}
}

// The Retry-After hint is one second per job of backlog and saturates at
// 30s.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	d := New(Config{QueueCapacity: 4, MaxActive: 1})
	defer d.Close()
	if got := d.RetryAfter(); got != time.Second {
		t.Errorf("idle RetryAfter = %v, want 1s (minimum one backlog unit)", got)
	}
	for _, tc := range []struct {
		running int
		want    time.Duration
	}{{7, 7 * time.Second}, {40, 30 * time.Second}} {
		d.mu.Lock()
		d.running = tc.running // simulate a backlog
		d.mu.Unlock()
		if got := d.RetryAfter(); got != tc.want {
			t.Errorf("RetryAfter with %d running = %v, want %v", tc.running, got, tc.want)
		}
	}
	d.mu.Lock()
	d.running = 0
	d.mu.Unlock()
}

// classifyError extracts structured fields from each failure class of the
// engine's error chains.
func TestClassifyError(t *testing.T) {
	cancel := fmt.Errorf("step: %w", fmt.Errorf("%w: j0001", ErrCanceled))
	if info := classifyError(cancel); info.Kind != "canceled" {
		t.Errorf("canceled chain classified as %q", info.Kind)
	}

	crash := fmt.Errorf("session: %w", &tess.RankError{
		Rank:  3,
		Value: &tess.FaultCrash{Rank: 3, Step: 6, Site: "compute"},
	})
	info := classifyError(crash)
	if info.Kind != "rank-crash" || info.Rank == nil || *info.Rank != 3 {
		t.Errorf("rank crash classified as %+v", info)
	}

	// The injected-fault site only decorates chains that carry a
	// *FaultCrash as an error (via RankError.Unwrap when Value is one).
	armed := classifyError(fmt.Errorf("x: %w", &tess.RankError{Rank: 1, Value: "plain panic"}))
	if armed.FaultSite != "" {
		t.Errorf("plain panic chain has fault site %q", armed.FaultSite)
	}

	stall := fmt.Errorf("watchdog: %w", &tess.StallError{})
	if info := classifyError(stall); info.Kind != "stall" {
		t.Errorf("stall chain classified as %q", info.Kind)
	}

	if info := classifyError(errors.New("misc failure")); info.Kind != "pipeline" {
		t.Errorf("generic error classified as %q", info.Kind)
	}
}

// Direct (non-HTTP) daemon surface: submit validates and rejects before
// the queue, unknown IDs are errors, Close refuses further work.
func TestDaemonSubmitAndShutdown(t *testing.T) {
	d := New(Config{QueueCapacity: 2, MaxActive: 1})

	if _, err := d.Submit(JobSpec{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty spec error = %v, want ErrBadSpec", err)
	}
	if d.Stats().Rejected != 1 {
		t.Errorf("rejected counter = %d after bad spec, want 1", d.Stats().Rejected)
	}
	if _, err := d.Job("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job error = %v, want ErrUnknownJob", err)
	}

	d.Close()
	spec := JobSpec{L: 8, Blocks: 1, Snapshots: [][][3]float64{{{1, 1, 1}}}}
	if _, err := d.Submit(spec); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit error = %v, want ErrShuttingDown", err)
	}
}

// RankError.Unwrap must expose a FaultCrash panic value to errors.As —
// the daemon's structured error reporting depends on it.
func TestRankErrorExposesFaultCrash(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &tess.RankError{
		Rank:  1,
		Value: &tess.FaultCrash{Rank: 1, Step: 2, Site: "exchange"},
	})
	var fc *tess.FaultCrash
	if !errors.As(err, &fc) || fc.Site != "exchange" {
		t.Fatalf("FaultCrash not reachable through RankError chain: %v", err)
	}
}
