// Package jobd is the multi-tenant tessellation daemon behind cmd/tessd:
// a bounded job queue with admission control in front of a pool of
// concurrent tess.Session lifecycles sharing the process's worker budget.
//
// The paper's thesis is that analysis runs in situ as a service to the
// simulation; jobd is that service's production shape. Clients submit
// JSON job specs (JobSpec) over HTTP; the daemon admits them into a
// bounded queue — rejecting with 429 + Retry-After when compute is
// saturated, so backpressure reaches the client instead of an unbounded
// backlog — and up to MaxActive scheduler workers drain the queue, each
// running one job as a full Open/Step/Close session. All active sessions
// draw their intra-rank worker counts from the process-wide
// tess.SharedWorkerBudget, so N tenants divide GOMAXPROCS instead of
// oversubscribing it N-fold.
//
// Admission (JobSpec.Validate) runs the engine's own config checks, so the
// daemon refuses a spec exactly when the library refuses its config; the
// daemon owns only its Limits and the rules of the JSON form.
//
// Tenant isolation rides on the engine's fault containment: every job
// owns its own abortable communication world, so a tenant whose fault
// plan (or genuine bug) crashes a rank degrades into a structured error
// event on that job's stream — RankError, stall dump, or abort cause —
// while sibling jobs' sessions never observe it. Cancellation is the same
// mechanism driven from outside: Cancel aborts the job's world, the
// in-flight Step unblocks with the cancellation cause, and the session is
// torn down.
//
// Per-job progress streams to clients as events (Event): queued, started,
// one step event per completed Step (optionally carrying the step's
// merged canonical mesh and observability digest), and exactly one
// terminal done/error/canceled event — as NDJSON with the mesh in base64,
// or, for a client that asks, as length-prefixed frames with the mesh as
// raw bytes (frames.go). The event log is replayable, so a client that
// reconnects resumes from any sequence number.
package jobd

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	tess "repro"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: admitted, waiting for a scheduler worker.
	StateQueued State = "queued"
	// StateRunning: a scheduler worker is driving the job's session.
	StateRunning State = "running"
	// StateDone: every step completed.
	StateDone State = "done"
	// StateFailed: the session errored (crash, stall, pipeline error).
	StateFailed State = "failed"
	// StateCanceled: canceled by the client, before or during execution.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors of the daemon API; the HTTP layer maps them to status
// codes (ErrBadSpec, declared in spec.go, joins them).
var (
	// ErrSaturated: the queue is full — compute is saturated and the
	// client should retry after the hinted delay (HTTP 429).
	ErrSaturated = errors.New("jobd: queue full, compute saturated")
	// ErrUnknownJob: no job with that ID (HTTP 404).
	ErrUnknownJob = errors.New("jobd: unknown job")
	// ErrCanceled is the abort cause of a client cancellation; a canceled
	// job's step error chain carries it.
	ErrCanceled = errors.New("jobd: job canceled")
	// ErrShuttingDown: the daemon no longer accepts jobs (HTTP 503).
	ErrShuttingDown = errors.New("jobd: shutting down")
	// ErrEvicted: the job finished long enough ago that its event log and
	// density grids were dropped to keep the daemon under
	// Config.RetainBytes; only its status is left (HTTP 410).
	ErrEvicted = errors.New("jobd: job evicted")
)

// Limits bounds what a single job may ask for; specs beyond them are
// rejected at admission (400), before occupying a queue slot.
type Limits struct {
	MaxBlocks    int // max blocks (= ranks) per job; 0 = unlimited
	MaxSteps     int // max tessellation steps per job; 0 = unlimited
	MaxParticles int // max particles per snapshot; 0 = unlimited
	MaxGridN     int // max density sample-grid resolution; 0 = unlimited
}

// Config configures a Daemon.
type Config struct {
	// QueueCapacity bounds the admission queue (jobs admitted but not yet
	// started). Default 16.
	QueueCapacity int
	// MaxActive is the number of scheduler workers — the maximum number of
	// concurrently running sessions. Default 2.
	MaxActive int
	// StallTimeout arms each session's stall watchdog (a hung tenant
	// becomes a StallError instead of occupying a worker forever).
	// Default 30s; negative disables.
	StallTimeout time.Duration
	// RetainBytes bounds the payload the daemon keeps for finished jobs —
	// the raw meshes of their step events, their density grids and their
	// specs' inline snapshots. When a job finishes, finished jobs are
	// evicted oldest first until the total is under the bound (never the
	// job that just finished, never a queued or running one); an evicted
	// job keeps only its status. Default 64 MiB.
	RetainBytes int64
	// Limits bounds individual job specs.
	Limits Limits
	// BeforeStep, when non-nil, is called on the job runner's goroutine
	// before each Step with the job ID and 1-based step number. It exists
	// for the e2e harness (deterministic gating of job progress); leave it
	// nil in production.
	BeforeStep func(jobID string, step int)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 16
	}
	if c.MaxActive == 0 {
		c.MaxActive = 2
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.StallTimeout < 0 {
		c.StallTimeout = 0
	}
	if c.RetainBytes <= 0 {
		c.RetainBytes = 64 << 20
	}
	return c
}

// ErrorInfo is the structured failure description of a job, extracted
// from the engine's error chain so clients get machine-readable fields,
// not just a string.
type ErrorInfo struct {
	// Message is the full error text.
	Message string `json:"message"`
	// Kind classifies the failure: "rank-crash", "stall", "canceled",
	// "spec", or "pipeline".
	Kind string `json:"kind"`
	// Rank is the failing rank for a rank-crash (nil otherwise).
	Rank *int `json:"rank,omitempty"`
	// FaultSite names the injected-fault checkpoint for a fault-plan
	// crash ("exchange", "compute", "output", "done").
	FaultSite string `json:"fault_site,omitempty"`
	// FaultStep is the injected crash's checkpoint number (0 otherwise).
	FaultStep int `json:"fault_step,omitempty"`
	// Aborted reports whether the job's world was aborted (true for
	// crashes, stalls, and cancellations).
	Aborted bool `json:"aborted,omitempty"`
}

// classifyError builds the ErrorInfo for a failed or canceled step.
func classifyError(err error) *ErrorInfo {
	info := &ErrorInfo{Message: err.Error(), Kind: "pipeline"}
	info.Aborted = errors.Is(err, tess.ErrWorldAborted)
	var re *tess.RankError
	var se *tess.StallError
	var fc *tess.FaultCrash
	switch {
	case errors.Is(err, ErrCanceled):
		info.Kind = "canceled"
	case errors.As(err, &se):
		info.Kind = "stall"
	case errors.As(err, &re):
		info.Kind = "rank-crash"
		r := re.Rank
		info.Rank = &r
	}
	if errors.As(err, &fc) {
		info.FaultSite = fc.Site
		info.FaultStep = fc.Step
	}
	return info
}

// JobStatus is the client-visible snapshot of one job.
type JobStatus struct {
	ID        string     `json:"id"`
	Name      string     `json:"name,omitempty"`
	State     State      `json:"state"`
	Blocks    int        `json:"blocks"`
	Steps     int        `json:"steps"`      // steps the spec asks for
	StepsDone int        `json:"steps_done"` // steps completed so far
	Queued    time.Time  `json:"queued"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     *ErrorInfo `json:"error,omitempty"`
}

// Job is one admitted tessellation job. All mutable fields are guarded by
// mu; the event log has its own synchronization.
type Job struct {
	id    string
	spec  JobSpec
	steps int // spec.Steps(), which eviction must not change
	log   *eventLog

	mu        sync.Mutex
	state     State
	stepsDone int
	queuedAt  time.Time
	startedAt time.Time
	doneAt    time.Time
	errInfo   *ErrorInfo
	canceled  bool
	evicted   bool          // payload dropped under Config.RetainBytes
	sess      *tess.Session // non-nil while running; Abort target

	// densityGrids holds each completed step's encoded density grid
	// (density jobs only), indexed by 1-based step number. Entries are
	// fresh copies — never aliases of the session's loaned Result.
	densityGrids map[int][]byte
	densityGridN int

	// retained is the payload accounted against Config.RetainBytes once the
	// job is terminal; guarded by the daemon's mu, not the job's.
	retained int64
}

// densityGrid returns the stored grid bytes of one step (1-based) and the
// grid resolution, for the HTTP slice endpoint.
func (j *Job) densityGrid(step int) ([]byte, int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	b, ok := j.densityGrids[step]
	return b, j.densityGridN, ok
}

// errIfEvicted is the error every payload endpoint answers for a job
// whose payload was dropped.
func (j *Job) errIfEvicted() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.evicted {
		return fmt.Errorf("%w: %s finished at %s and its event log and density grids were dropped to keep the daemon under its retention bound; its status is still served",
			ErrEvicted, j.id, j.doneAt.Format(time.RFC3339))
	}
	return nil
}

// payloadBytes is what retaining the job costs the daemon: the raw
// meshes of its step events, its density grids and the inline snapshots
// of its spec.
func (j *Job) payloadBytes() int64 {
	n := j.log.meshBytes()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, g := range j.densityGrids {
		n += int64(len(g))
	}
	for _, snap := range j.spec.Snapshots {
		n += int64(len(snap)) * 24
	}
	return n
}

// evict drops everything payloadBytes counts, leaving the status.
func (j *Job) evict() {
	j.mu.Lock()
	j.evicted = true
	j.densityGrids = nil
	j.spec.Snapshots = nil
	j.mu.Unlock()
	j.log.drop()
}

// ID returns the daemon-assigned job ID.
func (j *Job) ID() string { return j.id }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Name:      j.spec.Name,
		State:     j.state,
		Blocks:    j.spec.Blocks,
		Steps:     j.steps,
		StepsDone: j.stepsDone,
		Queued:    j.queuedAt,
		Error:     j.errInfo,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.Started = &t
	}
	if !j.doneAt.IsZero() {
		t := j.doneAt
		st.Finished = &t
	}
	return st
}

// Stats is the daemon-wide health snapshot served at /v1/stats.
// BudgetTotal and ActiveRanks read the process-wide worker budget
// (tess.SharedWorkerBudget): its total, GOMAXPROCS, and the ranks of every
// session open in the process.
type Stats struct {
	QueueLen      int   `json:"queue_len"`
	QueueCapacity int   `json:"queue_capacity"`
	Running       int   `json:"running"`
	MaxActive     int   `json:"max_active"`
	BudgetTotal   int   `json:"budget_total"`
	ActiveRanks   int   `json:"active_ranks"`
	Submitted     int64 `json:"submitted"`
	Rejected      int64 `json:"rejected"`
	Done          int64 `json:"done"`
	Failed        int64 `json:"failed"`
	Canceled      int64 `json:"canceled"`
	// RetainedBytes is the payload held for finished jobs, RetainBytes the
	// bound it is kept under, EvictedJobs how many finished jobs have had
	// their payload dropped for it.
	RetainedBytes int64 `json:"retained_bytes"`
	RetainBytes   int64 `json:"retain_bytes"`
	EvictedJobs   int64 `json:"evicted_jobs"`
}

// Daemon is the multi-tenant tessellation service. Create one with New,
// serve its Handler, and Close it to drain.
type Daemon struct {
	cfg   Config
	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // submission order, for List
	nextID    int
	running   int
	submitted int64
	rejected  int64
	done      int64
	failed    int64
	canceled  int64
	closed    bool

	// Finished jobs that still hold their payload, oldest first, and the
	// bytes they add up to.
	finished []*Job
	retained int64
	evicted  int64
}

// New builds a daemon and starts its scheduler workers.
func New(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueCapacity),
		quit:  make(chan struct{}),
		jobs:  make(map[string]*Job),
	}
	d.wg.Add(cfg.MaxActive)
	for i := 0; i < cfg.MaxActive; i++ {
		go d.worker()
	}
	return d
}

// Close stops admission, cancels every non-terminal job, and waits for
// the scheduler workers to drain. Idempotent.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.closed = true
	ids := append([]string(nil), d.order...)
	d.mu.Unlock()
	close(d.quit)
	for _, id := range ids {
		_, _ = d.Cancel(id) // canceling terminal jobs is a no-op
	}
	d.wg.Wait()
}

// Submit validates spec and admits it into the queue. It returns
// ErrBadSpec-wrapped errors for invalid specs, ErrSaturated when the
// queue is full (the admission-control rejection), and ErrShuttingDown
// after Close.
func (d *Daemon) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(d.cfg.Limits); err != nil {
		d.mu.Lock()
		d.rejected++
		d.mu.Unlock()
		return nil, err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrShuttingDown
	}
	d.nextID++
	j := &Job{
		id:       fmt.Sprintf("j%04d", d.nextID),
		spec:     spec,
		steps:    spec.Steps(),
		log:      newEventLog(),
		state:    StateQueued,
		queuedAt: time.Now().UTC(),
	}
	// "queued" goes into the log before the queue makes the job visible to
	// a runner, whose "started" must follow it in the stream.
	j.log.append(Event{Job: j.id, Type: "queued"}, false)
	// Reserve the queue slot while still holding the registry lock, so a
	// burst of submitters observes a consistent queue depth.
	select {
	case d.queue <- j:
	default:
		d.rejected++
		d.mu.Unlock()
		return nil, ErrSaturated
	}
	d.jobs[j.id] = j
	d.order = append(d.order, j.id)
	d.submitted++
	d.mu.Unlock()
	return j, nil
}

// RetryAfter is the admission-control backoff hint: how long a rejected
// client should wait before retrying — one second per queued or running
// job, capped at 30 s.
func (d *Daemon) RetryAfter() time.Duration {
	d.mu.Lock()
	backlog := len(d.queue) + d.running
	d.mu.Unlock()
	if backlog < 1 {
		backlog = 1
	}
	ra := time.Duration(backlog) * time.Second
	if ra > 30*time.Second {
		ra = 30 * time.Second
	}
	return ra
}

// Job looks a job up by ID.
func (d *Daemon) Job(id string) (*Job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// List returns every job's status in submission order.
func (d *Daemon) List() []JobStatus {
	d.mu.Lock()
	ids := append([]string(nil), d.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = d.jobs[id]
	}
	d.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Stats snapshots the daemon.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	s := Stats{
		QueueLen:      len(d.queue),
		QueueCapacity: d.cfg.QueueCapacity,
		Running:       d.running,
		MaxActive:     d.cfg.MaxActive,
		Submitted:     d.submitted,
		Rejected:      d.rejected,
		Done:          d.done,
		Failed:        d.failed,
		Canceled:      d.canceled,
		RetainedBytes: d.retained,
		RetainBytes:   d.cfg.RetainBytes,
		EvictedJobs:   d.evicted,
	}
	d.mu.Unlock()
	budget := tess.SharedWorkerBudget()
	s.BudgetTotal = budget.Total()
	_, s.ActiveRanks = budget.Active()
	return s
}

// Cancel cancels a job: a queued job terminates immediately without ever
// starting; a running job's world is aborted with ErrCanceled, unblocking
// its in-flight Step. Canceling a terminal job is a no-op. Returns the
// job's status after the cancellation took effect (for a running job the
// terminal event lands asynchronously, when the runner observes the
// abort).
func (d *Daemon) Cancel(id string) (JobStatus, error) {
	j, err := d.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal() || j.canceled:
		j.mu.Unlock()
		return j.Status(), nil
	case j.state == StateQueued:
		// The scheduler will pop it eventually and skip it; terminate now.
		j.canceled = true
		j.state = StateCanceled
		j.doneAt = time.Now().UTC()
		j.errInfo = &ErrorInfo{Message: ErrCanceled.Error(), Kind: "canceled"}
		info := j.errInfo
		j.mu.Unlock()
		d.countTerminal(StateCanceled)
		d.retain(j)
		j.log.append(Event{Job: j.id, Type: "canceled", Error: info}, true)
		return j.Status(), nil
	default: // running
		j.canceled = true
		sess := j.sess
		j.mu.Unlock()
		if sess != nil {
			sess.Abort(fmt.Errorf("%w: %s", ErrCanceled, id))
		}
		return j.Status(), nil
	}
}

// Resume resubmits a failed or canceled job's spec as a fresh job. When
// the spec carries a checkpoint_dir with a committed checkpoint (the
// normal case for a killed checkpointing job), the new job's session
// reopens it and continues from the step after the checkpoint instead
// of starting over, emitting a "resumed" event with the skipped step
// count. The original job is left untouched; the new job gets its own
// ID, queue slot, and event stream.
func (d *Daemon) Resume(id string) (*Job, error) {
	j, err := d.Job(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	state := j.state
	spec := j.spec
	evicted := j.evicted
	j.mu.Unlock()
	if !state.Terminal() || state == StateDone {
		return nil, badSpec("job %s is %s; only a failed or canceled job can be resumed", id, state)
	}
	if evicted {
		return nil, badSpec("job %s was evicted under the daemon's retention bound; submit its spec again", id)
	}
	return d.Submit(spec)
}

// retain accounts the payload of j, which has just reached a terminal
// state, and evicts finished jobs oldest first until the daemon is back
// under Config.RetainBytes. j itself stays whatever it weighs: a client is
// about to read the stream it has been following. It runs before j's
// terminal event is appended, so a client that saw the event sees the
// bound already enforced.
func (d *Daemon) retain(j *Job) {
	n := j.payloadBytes()
	var victims []*Job
	d.mu.Lock()
	j.retained = n
	d.retained += n
	d.finished = append(d.finished, j)
	for d.retained > d.cfg.RetainBytes && len(d.finished) > 1 {
		v := d.finished[0]
		d.finished = d.finished[1:]
		d.retained -= v.retained
		d.evicted++
		victims = append(victims, v)
	}
	d.mu.Unlock()
	for _, v := range victims {
		v.evict()
	}
}

// openDirIn opens dir under root as a root of its own, creating it and
// its missing parents through root first (os.Root has no MkdirAll before
// Go 1.25), so no component of dir can lead outside root.
func openDirIn(root *os.Root, dir string) (*os.Root, error) {
	parts := strings.Split(filepath.Clean(dir), string(filepath.Separator))
	for i := range parts {
		err := root.Mkdir(filepath.Join(parts[:i+1]...), 0o755)
		if err != nil && !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
	}
	return root.OpenRoot(dir)
}

// countTerminal bumps the daemon's terminal-state counters.
func (d *Daemon) countTerminal(s State) {
	d.mu.Lock()
	switch s {
	case StateDone:
		d.done++
	case StateFailed:
		d.failed++
	case StateCanceled:
		d.canceled++
	}
	d.mu.Unlock()
}

// worker is one scheduler goroutine: it drains the queue and runs each
// admitted job as a full session lifecycle.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		select {
		case <-d.quit:
			return
		case j := <-d.queue:
			if !d.startJob(j) {
				continue // canceled while queued
			}
			d.runJob(j)
		}
	}
}

// startJob transitions a popped job to running unless it was canceled
// while queued.
func (d *Daemon) startJob(j *Job) bool {
	j.mu.Lock()
	if j.canceled || j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.startedAt = time.Now().UTC()
	j.mu.Unlock()
	d.mu.Lock()
	d.running++
	d.mu.Unlock()
	j.log.append(Event{Job: j.id, Type: "started"}, false)
	return true
}

// finishJob records a job's terminal state and event.
func (d *Daemon) finishJob(j *Job, state State, info *ErrorInfo) {
	j.mu.Lock()
	j.state = state
	j.doneAt = time.Now().UTC()
	j.errInfo = info
	j.sess = nil
	stepsDone := j.stepsDone
	j.mu.Unlock()
	d.mu.Lock()
	d.running--
	d.mu.Unlock()
	d.countTerminal(state)
	d.retain(j)
	switch state {
	case StateDone:
		j.log.append(Event{Job: j.id, Type: "done", Steps: stepsDone}, true)
	case StateCanceled:
		j.log.append(Event{Job: j.id, Type: "canceled", Error: info}, true)
	default:
		j.log.append(Event{Job: j.id, Type: "error", Error: info}, true)
	}
}

// finishStepError ends a job whose step failed: canceled if Cancel asked
// for the abort that produced err, failed with the classified error
// otherwise.
func (d *Daemon) finishStepError(j *Job, err error) {
	info := classifyError(err)
	state := StateFailed
	j.mu.Lock()
	if j.canceled {
		state = StateCanceled
		info.Kind = "canceled"
	}
	j.mu.Unlock()
	d.finishJob(j, state, info)
}

// runJob drives one job's whole session lifecycle on the scheduler
// worker's goroutine. Every engine failure — a fault-plan crash, a stall,
// a pipeline error, a cancellation abort — is contained to this job: the
// session owns its own world, and the error surfaces as this job's
// terminal event while sibling jobs run on undisturbed.
func (d *Daemon) runJob(j *Job) {
	// A job's paths resolve under the daemon's working directory, through
	// an os.Root there, so that no component — a symlink included — leads
	// outside it (Validate has refused absolute and ".." paths).
	var root, ckdir *os.Root
	var err error
	if j.spec.SnapshotURI != "" || j.spec.CheckpointDir != "" {
		if root, err = os.OpenRoot("."); err == nil {
			defer root.Close()
			if j.spec.CheckpointDir != "" {
				ckdir, err = openDirIn(root, j.spec.CheckpointDir)
			}
		}
		if err != nil {
			d.finishJob(j, StateFailed, &ErrorInfo{Message: err.Error(), Kind: "spec"})
			return
		}
		if ckdir != nil {
			defer ckdir.Close()
		}
	}

	// The input side: a windowed out-of-core FileSource for a URI job,
	// the per-step snapshotSource otherwise.
	var fsrc *tess.FileSource
	var src snapshotSource
	if uri := j.spec.SnapshotURI; uri != "" {
		fsrc, err = tess.OpenFileSourceIn(root, uri, j.spec.SourceWindow)
		if err != nil {
			d.finishJob(j, StateFailed, &ErrorInfo{Message: err.Error(), Kind: "spec"})
			return
		}
		defer fsrc.Close()
		if limit := d.cfg.Limits.MaxParticles; limit > 0 && fsrc.TotalParticles() > limit {
			d.finishJob(j, StateFailed, &ErrorInfo{
				Message: fmt.Sprintf("jobd: snapshot %s holds %d particles, exceeding the daemon's limit of %d",
					uri, fsrc.TotalParticles(), limit),
				Kind: "spec",
			})
			return
		}
	} else {
		if src, err = j.spec.source(); err != nil {
			d.finishJob(j, StateFailed, &ErrorInfo{Message: err.Error(), Kind: "spec"})
			return
		}
	}
	cfg := j.spec.config(d.cfg.StallTimeout)
	var rec *tess.Recorder
	if j.spec.IncludeObs {
		rec = tess.NewRecorder(j.spec.Blocks)
		cfg.Recorder = rec
	}

	// A checkpointing job whose directory already holds a committed
	// checkpoint resumes from it: the session reopens at step N and the
	// loop below starts at N+1. An unreadable or incompatible checkpoint
	// does not brick resubmission — the job starts fresh and overwrites it
	// at its first completed step — but the stream says so.
	var sess *tess.Session
	resumed := 0
	if ckdir != nil {
		rs, err := tess.ResumeIn(cfg, ckdir, j.spec.Blocks)
		switch {
		case err == nil:
			sess = rs
			resumed = rs.Steps()
		case !errors.Is(err, fs.ErrNotExist):
			j.log.append(Event{Job: j.id, Type: "resume-fallback",
				Error: &ErrorInfo{Kind: "checkpoint", Message: err.Error()}}, false)
		}
	}
	if sess == nil {
		if sess, err = tess.Open(cfg, j.spec.Blocks); err != nil {
			d.finishJob(j, StateFailed, &ErrorInfo{Message: err.Error(), Kind: "spec"})
			return
		}
	}
	defer sess.Close()

	// Publish the session as the cancellation target — but if Cancel
	// already marked the job between startJob and here, it had no session
	// to abort; honor the flag now.
	j.mu.Lock()
	j.sess = sess
	canceled := j.canceled
	j.mu.Unlock()
	if canceled {
		d.finishJob(j, StateCanceled, &ErrorInfo{Message: ErrCanceled.Error(), Kind: "canceled"})
		return
	}

	// One merge workspace per job: steps 2 to N reuse step 1's storage.
	var merger tess.Merger
	steps := j.steps
	if resumed > steps {
		resumed = steps // foreign checkpoint deeper than this job; cap
	}
	if resumed > 0 {
		j.mu.Lock()
		j.stepsDone = resumed
		j.mu.Unlock()
		j.log.append(Event{Job: j.id, Type: "resumed", Step: resumed}, false)
		// Fast-forward the source past the checkpointed steps (a sim
		// source must replay its evolution to reach step N's state).
		for step := 1; step <= resumed && src != nil; step++ {
			if _, err := src.next(); err != nil {
				d.finishJob(j, StateFailed, &ErrorInfo{Message: err.Error(), Kind: "spec"})
				return
			}
		}
	}
	for step := resumed + 1; step <= steps; step++ {
		if hook := d.cfg.BeforeStep; hook != nil {
			hook(j.id, step)
		}
		var particles []tess.Particle
		var out *tess.Output
		var err error
		if fsrc != nil {
			out, err = sess.StepFrom(fsrc)
		} else {
			if particles, err = src.next(); err != nil {
				d.finishJob(j, StateFailed, &ErrorInfo{Message: err.Error(), Kind: "spec"})
				return
			}
			out, err = sess.Step(particles)
		}
		if err == nil && ckdir != nil {
			// checkpoint_dir means a checkpoint after every step, committed
			// before the step's event says the step is done.
			if err = sess.CheckpointIn(ckdir); err != nil {
				err = fmt.Errorf("jobd: step %d checkpoint: %w", step, err)
			}
		}
		if err != nil {
			d.finishStepError(j, err)
			return
		}
		// Scalar copies of the loaned Output's counts: the event must not
		// hold any reference into the loan (it outlives the next Step).
		sites, cells := out.Counts.Sites, out.Counts.Kept
		ev := Event{
			Job:   j.id,
			Type:  "step",
			Step:  step,
			Sites: sites,
			Cells: cells,
		}
		if j.spec.IncludeMesh {
			if ev.mesh, err = canonicalMesh(&merger, out, cfg); err != nil {
				d.finishJob(j, StateFailed, &ErrorInfo{Message: err.Error(), Kind: "pipeline"})
				return
			}
		}
		if out.Obs != nil {
			ev.Obs = obsDigest(out.Obs)
		}
		if ds := j.spec.Density; ds != nil {
			res, err := sess.StepDensity(particles, ds.config())
			if err != nil {
				d.finishStepError(j, err)
				return
			}
			// EncodeDensityGrid allocates, so the stored bytes and the
			// digest are detached from the loaned Result before the next
			// StepDensity overwrites its grid.
			grid := tess.EncodeDensityGrid(res.Grid)
			ev.Density = densityDigest(res, grid)
			j.mu.Lock()
			if j.densityGrids == nil {
				j.densityGrids = make(map[int][]byte, steps)
			}
			j.densityGrids[step] = grid
			j.densityGridN = res.GridN
			j.mu.Unlock()
		}
		j.mu.Lock()
		j.stepsDone = step
		j.mu.Unlock()
		j.log.append(ev, false)
	}
	d.finishJob(j, StateDone, nil)
}
