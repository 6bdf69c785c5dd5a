package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records spans at the layer boundaries the benchmark crosses: one
// span per public call of a traced op, plus one per exported layer function
// of the layer replay. Spans stay in memory and are written as Chrome
// trace-event JSON when the run ends. A nil *tracer is the untraced run:
// every method is a no-op behind one pointer test.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Parent is the index of the span that caused it
// (-1 for a root); spans of one op share its Op id; Tid is the driver
// goroutine (or 100+rank for the recorder's per-rank phases).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Op         int
	Tid        int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, the handle for end and the
// parent of child spans. On a nil tracer it returns -1.
func (t *tracer) begin(name string, parent, op, tid int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), End: -1, Parent: parent, Op: op, Tid: tid})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timing is one in-flight timed call: a span when traced, a plain stopwatch
// otherwise, so layer code times itself the same way in both runs.
type timing struct {
	tr *tracer
	id int
	t0 time.Time
}

// start opens a span (see begin) and starts its stopwatch.
func (t *tracer) start(name string, parent, op, tid int) timing {
	return timing{tr: t, id: t.begin(name, parent, op, tid), t0: time.Now()}
}

// stop closes the span and returns the elapsed time.
func (tm timing) stop() time.Duration {
	d := time.Since(tm.t0)
	tm.tr.end(tm.id)
	return d
}

// adopt adds the per-rank phase spans of a recorder snapshot as children of
// parent, so the written trace shows the session's own phases under the
// benchmark's Step span. The recorder's epoch is the step's start.
func (t *tracer) adopt(snap *obs.Snapshot, parent, op int) {
	if t == nil || snap == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.spans[parent].Start
	for _, sp := range snap.Spans {
		t.spans = append(t.spans, span{
			Name: "core." + sp.Phase.String(), Start: base + sp.Start, End: base + sp.Start + sp.Dur,
			Parent: parent, Op: op, Tid: 100 + int(sp.Rank),
		})
	}
}

// durations returns the length of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, sp := range t.spans {
		if sp.Name == name && sp.End >= 0 {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// p50 is the median length of the spans called name, in seconds, and how
// many there were.
func (t *tracer) p50(name string) (float64, int) {
	ds := t.durations(name)
	return median(ds).Seconds(), len(ds)
}

func tracePath(workload string) string {
	return filepath.Join(outDir, workload+".trace.json")
}

// writeFile writes the spans as Chrome trace-event JSON (the object format
// with a traceEvents array; load it in chrome://tracing or
// https://ui.perfetto.dev). Timestamps are microseconds.
func (t *tracer) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, sp := range t.spans {
		if sp.End < 0 {
			continue
		}
		events = append(events, event{
			Name: sp.Name, Ph: "X",
			Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: sp.Tid,
			Args: map[string]any{"id": i, "parent": sp.Parent, "op": sp.Op},
		})
	}
	t.mu.Unlock()
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"}
	raw, err := json.Marshal(&doc)
	if err != nil {
		return fmt.Errorf("bench: trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: trace: %w", err)
	}
	return nil
}
