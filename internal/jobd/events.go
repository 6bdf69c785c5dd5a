package jobd

import (
	"sync"
	"time"
)

// Event is one record of a job's event stream. Every job emits a
// totally ordered sequence: queued, then (unless canceled while queued)
// started, then one step event per completed Step, terminated by exactly
// one of done, error, or canceled. A job reopening a session checkpoint
// emits one "resumed" event (Step = steps skipped) between started and
// its first step. Seq numbers from 0 with no gaps, so a client can
// resume a broken stream with ?from=<next seq>.
type Event struct {
	Job  string    `json:"job"`
	Seq  int       `json:"seq"`
	Type string    `json:"type"` // "queued" | "started" | "resumed" | "resume-fallback" | "step" | "done" | "error" | "canceled"
	Time time.Time `json:"time"`

	// Step fields (type "step"); for type "resumed", Step is the number
	// of checkpointed steps skipped. Step counts from 1.
	Step  int   `json:"step,omitempty"`
	Sites int64 `json:"sites,omitempty"`
	Cells int64 `json:"cells,omitempty"`
	// MeshB64 is the step's merged canonical mesh encoding, base64
	// (present when the spec set include_mesh). The daemon's log holds the
	// raw bytes (mesh); the NDJSON writer and Client.Events fill MeshB64
	// from them.
	MeshB64 string `json:"mesh_b64,omitempty"`
	// Obs is the step's observability digest (include_obs).
	Obs *ObsDigest `json:"obs,omitempty"`
	// Density is the step's density-field digest (density jobs). The grid
	// itself is fetched from /v1/jobs/{id}/density/{step}.
	Density *DensityDigest `json:"density,omitempty"`

	// Steps is the completed step total (type "done").
	Steps int `json:"steps,omitempty"`

	// Error is the structured failure (type "error" or "canceled"), or why
	// a present checkpoint was not used (type "resume-fallback", kind
	// "checkpoint"; the job then starts from step 1).
	Error *ErrorInfo `json:"error,omitempty"`

	// mesh is the raw canonical mesh of a step event, exactly sized: what
	// an event frame carries after the header, and what retention counts.
	mesh []byte
}

// ObsDigest is the per-step observability summary streamed in step
// events: the registered counters (per rank) and the phase imbalance.
type ObsDigest struct {
	// Counters maps counter name to per-rank values; JSON object keys
	// marshal sorted, so the wire form is deterministic.
	Counters         map[string][]int64 `json:"counters"`
	ComputeImbalance float64            `json:"compute_imbalance"`
	SentBytes        int64              `json:"sent_bytes"`
	RecvdBytes       int64              `json:"recvd_bytes"`
}

// DensityDigest is the per-step density-field summary streamed in step
// events. Digest is the SHA-256 of the grid's canonical little-endian
// encoding — the value a client compares against a direct single-process
// run to check decomposition independence without fetching the grid.
type DensityDigest struct {
	GridN      int     `json:"grid_n"`
	Digest     string  `json:"digest"`
	Mean       float64 `json:"mean"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	VoidFrac   float64 `json:"void_frac"`
	GridMass   float64 `json:"grid_mass"`
	TracerMass float64 `json:"tracer_mass"`
	Outside    int64   `json:"outside,omitempty"`
	Degenerate int64   `json:"degenerate,omitempty"`
	// SpectrumBins is the number of power-spectrum bins computed (0 when
	// the spec did not request a spectrum).
	SpectrumBins int `json:"spectrum_bins,omitempty"`
}

// eventLog is a job's append-only event sequence with broadcast tailing:
// Append wakes every waiter, and a terminal event closes the log. One
// writer (the job's runner or the admission path), many readers (HTTP
// streams).
type eventLog struct {
	mu     sync.Mutex
	events []Event
	closed bool
	signal chan struct{} // closed and replaced on every append/close
}

func newEventLog() *eventLog {
	return &eventLog{signal: make(chan struct{})}
}

// append stamps seq and time onto e and appends it; terminal marks the
// log closed (no further events).
func (l *eventLog) append(e Event, terminal bool) {
	l.mu.Lock()
	e.Seq = len(l.events)
	e.Time = time.Now().UTC()
	l.events = append(l.events, e)
	if terminal {
		l.closed = true
	}
	old := l.signal
	l.signal = make(chan struct{})
	l.mu.Unlock()
	close(old)
}

// since returns a copy of the events from seq from on, whether the log is
// closed, and a channel that is closed on the next append (valid until
// then).
func (l *eventLog) since(from int) (evs []Event, closed bool, changed <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(l.events) {
		evs = append(evs, l.events[from:]...)
	}
	return evs, l.closed, l.signal
}

// meshBytes is the raw mesh payload the log holds.
func (l *eventLog) meshBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for i := range l.events {
		n += int64(len(l.events[i].mesh))
	}
	return n
}

// drop forgets the events of a closed log; since then returns nothing.
func (l *eventLog) drop() {
	l.mu.Lock()
	l.events = nil
	l.mu.Unlock()
}
