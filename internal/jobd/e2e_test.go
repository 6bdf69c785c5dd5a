package jobd_test

// End-to-end tests of the tessd daemon through its real HTTP surface,
// using the in-process loopback harness (harness_test.go). These are the
// acceptance tests of the service layer: byte-identity with direct
// sessions, queue-full admission control, cancellation mid-step, and
// fault containment across tenants — all under -race.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	tess "repro"
	"repro/internal/jobd"
)

const e2eWait = 120 * time.Second

// happySpec is the canonical small inline job: 216 particles per step on
// a periodic 8-cube over 2 blocks.
func happySpec(seed int64, steps int) jobd.JobSpec {
	return jobd.JobSpec{
		L:           8,
		Blocks:      2,
		Ghost:       3,
		Snapshots:   snapshots(seed, steps, 6, 8),
		IncludeMesh: true,
	}
}

// The daemon's output must be byte-identical to a direct single-client
// Open/Step/Close session fed the same snapshots: every step's merged
// canonical mesh, decoded from the NDJSON stream, equals the direct
// run's encoding bit for bit.
func TestE2EHappyPathByteIdentical(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	spec := happySpec(1, 3)
	spec.Name = "happy"
	spec.IncludeObs = true

	// The submit response samples the job's state, which a runner may
	// already have advanced; the event log below is what orders the job.
	st := h.Submit(t, spec)
	events, final := h.Wait(t, st.ID, e2eWait)

	if final.State != jobd.StateDone || final.StepsDone != 3 || final.Error != nil {
		t.Fatalf("final status = %+v, want done after 3 steps", final)
	}
	term := terminal(t, events)
	if term.Type != "done" || term.Steps != 3 {
		t.Fatalf("terminal event = %+v, want done with 3 steps", term)
	}
	// The stream is totally ordered with contiguous sequence numbers:
	// queued, started, 3 steps, done.
	wantTypes := []string{"queued", "started", "step", "step", "step", "done"}
	if len(events) != len(wantTypes) {
		t.Fatalf("got %d events, want %d", len(events), len(wantTypes))
	}
	for i, e := range events {
		if e.Type != wantTypes[i] {
			t.Errorf("event %d type = %q, want %q", i, e.Type, wantTypes[i])
		}
		if e.Seq != i {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i)
		}
		if e.Job != st.ID {
			t.Errorf("event %d job = %q, want %q", i, e.Job, st.ID)
		}
	}
	for _, e := range events {
		if e.Type != "step" {
			continue
		}
		if e.Sites == 0 || e.Cells == 0 {
			t.Errorf("step %d reports %d sites, %d cells; want > 0", e.Step, e.Sites, e.Cells)
		}
		if e.Obs == nil {
			t.Errorf("step %d has no obs digest despite include_obs", e.Step)
		} else if len(e.Obs.Counters["sites"]) != spec.Blocks {
			t.Errorf("step %d obs sites counter has %d ranks, want %d",
				e.Step, len(e.Obs.Counters["sites"]), spec.Blocks)
		}
	}

	got := stepMeshes(t, events)
	want := directMeshes(t, spec)
	if len(got) != len(want) {
		t.Fatalf("daemon produced %d meshes, direct run %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("step %d: daemon mesh (%d bytes) differs from direct session mesh (%d bytes)",
				i+1, len(got[i]), len(want[i]))
		}
	}
}

// A saturated daemon must reject with 429 + Retry-After, and the queue
// must drain normally afterwards: admission control applies backpressure
// without wedging the service.
func TestE2EQueueFullAdmission(t *testing.T) {
	var once sync.Once
	running := make(chan struct{})
	gate := make(chan struct{})
	h := startDaemon(t, jobd.Config{
		QueueCapacity: 1,
		MaxActive:     1,
		BeforeStep: func(jobID string, step int) {
			once.Do(func() { close(running) })
			<-gate
		},
	})

	// Job 1 occupies the single scheduler worker (parked in BeforeStep)...
	st1 := h.Submit(t, happySpec(2, 1))
	select {
	case <-running:
	case <-time.After(e2eWait):
		t.Fatal("first job never started")
	}
	// ...job 2 occupies the single queue slot...
	st2 := h.Submit(t, happySpec(3, 1))
	// ...so job 3 must be rejected with the admission-control error.
	_, err := h.Client.Submit(context.Background(), happySpec(4, 1))
	var apiErr *jobd.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("submit into full queue: err = %v, want 429 APIError", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Errorf("Retry-After = %v, want >= 1s", apiErr.RetryAfter)
	}

	stats, err := h.Client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 1 || stats.Submitted != 2 || stats.Running != 1 || stats.QueueLen != 1 {
		t.Errorf("stats = %+v, want 1 rejected, 2 submitted, 1 running, 1 queued", stats)
	}

	// Release the gate: both admitted jobs must drain to done, and a
	// fresh submission must be accepted again.
	close(gate)
	if _, final := h.Wait(t, st1.ID, e2eWait); final.State != jobd.StateDone {
		t.Fatalf("job 1 final state = %q, want done (err %+v)", final.State, final.Error)
	}
	if _, final := h.Wait(t, st2.ID, e2eWait); final.State != jobd.StateDone {
		t.Fatalf("job 2 final state = %q, want done (err %+v)", final.State, final.Error)
	}
	st3 := h.Submit(t, happySpec(4, 1))
	if _, final := h.Wait(t, st3.ID, e2eWait); final.State != jobd.StateDone {
		t.Fatalf("post-drain job final state = %q, want done", final.State)
	}
}

// Cancel while a step is in flight: the job's fault plan stretches the
// exchange phase with long (abortable) send delays, the client cancels
// over HTTP, and the step must unblock promptly into a canceled terminal
// event instead of sleeping out the delay schedule.
func TestE2ECancelMidStep(t *testing.T) {
	stepEntered := make(chan struct{})
	var once sync.Once
	h := startDaemon(t, jobd.Config{
		BeforeStep: func(jobID string, step int) {
			once.Do(func() { close(stepEntered) })
		},
	})
	spec := happySpec(5, 2)
	// Without the cancel, each message would sleep up to a minute — far
	// beyond this test's patience — so a prompt finish proves the abort
	// tears through the delays.
	spec.Fault = &jobd.FaultSpec{Seed: 9, SendDelayMaxMS: 60_000}

	st := h.Submit(t, spec)
	select {
	case <-stepEntered:
	case <-time.After(e2eWait):
		t.Fatal("job never reached its first step")
	}
	if _, err := h.Client.Cancel(context.Background(), st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	events, final := h.Wait(t, st.ID, e2eWait)
	term := terminal(t, events)
	if term.Type != "canceled" {
		t.Fatalf("terminal event = %+v, want canceled", term)
	}
	if final.State != jobd.StateCanceled {
		t.Fatalf("final state = %q, want canceled", final.State)
	}
	if final.Error == nil || final.Error.Kind != "canceled" {
		t.Fatalf("final error = %+v, want kind canceled", final.Error)
	}
	if final.StepsDone != 0 {
		t.Errorf("steps_done = %d, want 0 (canceled mid-first-step)", final.StepsDone)
	}
	// Canceling a terminal job is a no-op, not an error.
	if st2, err := h.Client.Cancel(context.Background(), st.ID); err != nil || st2.State != jobd.StateCanceled {
		t.Errorf("second cancel: status %+v, err %v", st2, err)
	}
}

// Cancel a job that is still queued: it terminates at once, never starts,
// and the scheduler worker that later pops it skips it without counting
// it twice.
func TestE2ECancelQueuedJob(t *testing.T) {
	var once sync.Once
	running := make(chan struct{})
	gate := make(chan struct{})
	h := startDaemon(t, jobd.Config{
		MaxActive: 1,
		BeforeStep: func(jobID string, step int) {
			once.Do(func() { close(running) })
			<-gate
		},
	})
	ctx := context.Background()

	// Job 1 parks the single worker; job 2 waits in the queue behind it.
	st1 := h.Submit(t, happySpec(60, 1))
	select {
	case <-running:
	case <-time.After(e2eWait):
		t.Fatal("first job never started")
	}
	st2 := h.Submit(t, happySpec(61, 1))
	if got, err := h.Client.Cancel(ctx, st2.ID); err != nil || got.State != jobd.StateCanceled {
		t.Fatalf("cancel queued job: status %+v, err %v", got, err)
	}

	// Release the worker. Job 3 queues behind job 2, so its finishing
	// proves the worker popped job 2 and skipped it.
	st3 := h.Submit(t, happySpec(62, 1))
	close(gate)
	for _, id := range []string{st1.ID, st3.ID} {
		if _, final := h.Wait(t, id, e2eWait); final.State != jobd.StateDone {
			t.Fatalf("%s final state = %q, want done", id, final.State)
		}
	}
	events, final := h.Wait(t, st2.ID, e2eWait)
	var types []string
	for _, e := range events {
		types = append(types, e.Type)
	}
	if got := strings.Join(types, ","); got != "queued,canceled" {
		t.Errorf("canceled queued job's stream = %s, want queued,canceled", got)
	}
	if final.State != jobd.StateCanceled || final.Started != nil || final.Error == nil || final.Error.Kind != "canceled" {
		t.Errorf("canceled queued job's status = %+v, want canceled, never started", final)
	}
	if stats := h.D.Stats(); stats.Canceled != 1 || stats.Done != 2 {
		t.Errorf("stats = %+v, want 1 canceled and 2 done", stats)
	}
}

// GET /v1/jobs lists every job's status in submission order.
func TestE2EListInSubmissionOrder(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	var ids []string
	for seed := int64(70); seed < 73; seed++ {
		st := h.Submit(t, happySpec(seed, 1))
		h.Wait(t, st.ID, e2eWait)
		ids = append(ids, st.ID)
	}
	list, err := h.Client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range list {
		got = append(got, st.ID)
		if st.State != jobd.StateDone {
			t.Errorf("%s listed as %q, want done", st.ID, st.State)
		}
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Errorf("List order = %v, want submission order %v", got, ids)
	}
}

// The daemon's stats report the process-wide worker budget: its total is
// GOMAXPROCS, and its active ranks are a running job's plus those of a
// session the daemon knows nothing about.
func TestE2EStatsReadSharedBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var once sync.Once
	running := make(chan struct{})
	gate := make(chan struct{})
	h := startDaemon(t, jobd.Config{
		BeforeStep: func(jobID string, step int) {
			once.Do(func() { close(running) })
			<-gate
		},
	})
	st := h.Submit(t, happySpec(80, 1))
	select {
	case <-running:
	case <-time.After(e2eWait):
		t.Fatal("job never started")
	}
	sess, err := tess.Open(tess.NewPeriodicConfig(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	stats := h.D.Stats()
	sess.Close()
	close(gate)
	if stats.BudgetTotal != 3 || stats.ActiveRanks != 3 {
		t.Errorf("stats budget_total = %d, active_ranks = %d; want 3 (GOMAXPROCS) and 3 (the job's 2 blocks + 1)",
			stats.BudgetTotal, stats.ActiveRanks)
	}
	h.Wait(t, st.ID, e2eWait)
}

// The acceptance criterion of the issue: three tenants run concurrently,
// one carries a fault plan that crashes its rank 1 mid-run. The crashed
// tenant must surface a structured error event over HTTP — kind, rank,
// fault site — while both sibling jobs complete with merged canonical
// meshes byte-identical to direct single-client sessions.
func TestE2ECrashTenantLeavesSiblingsUnharmed(t *testing.T) {
	h := startDaemon(t, jobd.Config{MaxActive: 3})

	specA := happySpec(10, 3)
	specA.Name = "tenant-a"
	specC := happySpec(11, 3)
	specC.Name = "tenant-c"
	victim := happySpec(12, 3)
	victim.Name = "tenant-b"
	victim.IncludeMesh = false
	// Fault checkpoints accumulate across a session's steps, four per
	// step; checkpoint 6 is the second step's "compute" site on rank 1.
	victim.Fault = &jobd.FaultSpec{Seed: 13, CrashRank: 1, CrashStep: 6}

	stA := h.Submit(t, specA)
	stB := h.Submit(t, victim)
	stC := h.Submit(t, specC)

	// Wait for all three concurrently — they share the daemon.
	var wg sync.WaitGroup
	results := make(map[string][]jobd.Event, 3)
	finals := make(map[string]jobd.JobStatus, 3)
	var mu sync.Mutex
	for _, st := range []jobd.JobStatus{stA, stB, stC} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			events, final := h.Wait(t, id, e2eWait)
			mu.Lock()
			results[id] = events
			finals[id] = final
			mu.Unlock()
		}(st.ID)
	}
	wg.Wait()

	// The victim failed with a fully structured error.
	finalB := finals[stB.ID]
	if finalB.State != jobd.StateFailed {
		t.Fatalf("victim state = %q, want failed (err %+v)", finalB.State, finalB.Error)
	}
	ei := finalB.Error
	if ei == nil {
		t.Fatal("victim has no error info")
	}
	if ei.Kind != "rank-crash" {
		t.Errorf("victim error kind = %q, want rank-crash", ei.Kind)
	}
	if ei.Rank == nil || *ei.Rank != 1 {
		t.Errorf("victim error rank = %v, want 1", ei.Rank)
	}
	if ei.FaultSite == "" || ei.FaultStep != 6 {
		t.Errorf("victim fault site/step = %q/%d, want named site at checkpoint 6", ei.FaultSite, ei.FaultStep)
	}
	if !ei.Aborted {
		t.Error("victim error not marked aborted")
	}
	termB := terminal(t, results[stB.ID])
	if termB.Type != "error" {
		t.Fatalf("victim terminal event = %+v, want error", termB)
	}
	// The crash fired during step 2, so exactly step 1 completed.
	if finalB.StepsDone != 1 {
		t.Errorf("victim steps_done = %d, want 1", finalB.StepsDone)
	}

	// Both siblings completed, and their meshes are byte-identical to
	// direct single-client sessions fed the same snapshots.
	for _, tc := range []struct {
		id   string
		spec jobd.JobSpec
	}{{stA.ID, specA}, {stC.ID, specC}} {
		final := finals[tc.id]
		if final.State != jobd.StateDone || final.StepsDone != 3 {
			t.Fatalf("sibling %s (%s) state = %q after %d steps, want done after 3 (err %+v)",
				tc.id, tc.spec.Name, final.State, final.StepsDone, final.Error)
		}
		got := stepMeshes(t, results[tc.id])
		want := directMeshes(t, tc.spec)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("sibling %s step %d mesh differs from direct run", tc.spec.Name, i+1)
			}
		}
	}

	stats, err := h.Client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Done != 2 || stats.Failed != 1 {
		t.Errorf("stats = %+v, want 2 done / 1 failed", stats)
	}
}

// The daemon's built-in N-body source runs a self-contained sim tenant:
// no inline snapshots, domain fixed by ng.
func TestE2ESimJob(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	st := h.Submit(t, jobd.JobSpec{
		Blocks: 2,
		Ghost:  3,
		Sim:    &jobd.SimSpec{NG: 8, Steps: 2},
	})
	events, final := h.Wait(t, st.ID, e2eWait)
	if final.State != jobd.StateDone || final.StepsDone != 2 {
		t.Fatalf("sim job final = %+v, want done after 2 steps", final)
	}
	for _, e := range events {
		if e.Type == "step" && e.Sites != 8*8*8 {
			t.Errorf("sim step %d has %d sites, want %d", e.Step, e.Sites, 8*8*8)
		}
	}
}

// HTTP error mapping: bad specs are 400 before ever touching the queue,
// unknown jobs are 404.
func TestE2EHTTPErrorMapping(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	ctx := context.Background()

	_, err := h.Client.Submit(ctx, jobd.JobSpec{L: 8}) // no blocks, no source
	var apiErr *jobd.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("bad spec: err = %v, want 400 APIError", err)
	}
	// A ghost the decomposition cannot host is a bad spec too: rejected at
	// admission, never queued.
	wide := happySpec(5, 1)
	wide.L, wide.Blocks, wide.Ghost = 6, 8, 0 // default ghost 4, blocks 3 wide
	wide.Snapshots = snapshots(5, 1, 4, 6)
	before := h.D.Stats()
	_, err = h.Client.Submit(ctx, wide)
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || !strings.Contains(apiErr.Message, "ghost") {
		t.Errorf("ghost wider than a block: err = %v, want 400 APIError naming the ghost", err)
	}
	if after := h.D.Stats(); after.QueueLen != before.QueueLen || after.Submitted != before.Submitted || after.Rejected != before.Rejected+1 {
		t.Errorf("rejected spec moved the queue: before %+v, after %+v", before, after)
	}
	if _, err := h.Client.Status(ctx, "j9999"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown job status: err = %v, want 404 APIError", err)
	}
	if _, err := h.Client.Cancel(ctx, "j9999"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown job cancel: err = %v, want 404 APIError", err)
	}
}

// Event streams are replayable: reconnecting with ?from=N resumes exactly
// at sequence N with no gaps and no duplicates.
func TestE2EEventReplay(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	st := h.Submit(t, happySpec(6, 2))
	full, _ := h.Wait(t, st.ID, e2eWait)

	for from := 0; from <= len(full); from++ {
		var got []jobd.Event
		err := h.Client.Events(context.Background(), st.ID, from, func(e jobd.Event) error {
			got = append(got, e)
			return nil
		})
		if err != nil {
			t.Fatalf("replay from %d: %v", from, err)
		}
		if len(got) != len(full)-from {
			t.Fatalf("replay from %d returned %d events, want %d", from, len(got), len(full)-from)
		}
		for i, e := range got {
			if e.Seq != from+i {
				t.Fatalf("replay from %d: event %d has seq %d", from, i, e.Seq)
			}
		}
	}
}

// After Close the daemon refuses new work with 503 and every live job is
// torn down; Close is idempotent.
func TestE2EShutdown(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	h := startDaemon(t, jobd.Config{
		BeforeStep: func(jobID string, step int) {
			entered <- struct{}{}
			<-gate
		},
	})
	spec := happySpec(7, 1)
	// Long abortable delays so shutdown has something real to abort.
	spec.Fault = &jobd.FaultSpec{Seed: 3, SendDelayMaxMS: 60_000}
	st := h.Submit(t, spec)
	select {
	case <-entered:
	case <-time.After(e2eWait):
		t.Fatal("job never started stepping")
	}
	close(gate)

	h.D.Close()
	h.D.Close() // idempotent

	_, err := h.Client.Submit(context.Background(), happySpec(8, 1))
	var apiErr *jobd.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("submit after close: err = %v, want 503 APIError", err)
	}
	final, err := h.Client.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.State.Terminal() {
		t.Fatalf("job state after close = %q, want terminal", final.State)
	}
}

// Sanity-check the raw curl example from the tessd usage docs: a plain
// POST of the documented JSON body is accepted with 202.
func TestE2EDocExample(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	resp, err := http.Post(h.BaseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"l":8,"blocks":2,"sim":{"ng":8,"steps":1},"include_mesh":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("doc example submit returned %d, want 202", resp.StatusCode)
	}
}

// The density-job acceptance contract: grids served by the daemon are
// byte-identical to a direct single-process ComputeDensity run of the same
// snapshots, the step events carry matching digests, and the z-plane
// endpoint serves exact sub-slices of the full grid.
func TestE2EDensityJobByteIdentical(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	spec := happySpec(21, 2)
	spec.Name = "density"
	spec.Density = &jobd.DensitySpec{GridN: 16, Spectrum: true}

	st := h.Submit(t, spec)
	events, final := h.Wait(t, st.ID, e2eWait)
	if final.State != jobd.StateDone || final.StepsDone != 2 {
		t.Fatalf("final status = %+v, want done after 2 steps", final)
	}

	want := directDensityGrids(t, spec)
	ctx := context.Background()
	for _, e := range events {
		if e.Type != "step" {
			continue
		}
		if e.Density == nil {
			t.Fatalf("step %d event has no density digest", e.Step)
		}
		if e.Density.GridN != 16 {
			t.Errorf("step %d digest grid_n = %d, want 16", e.Step, e.Density.GridN)
		}
		if e.Density.SpectrumBins == 0 {
			t.Errorf("step %d digest has no spectrum bins despite spectrum:true", e.Step)
		}
		if e.Density.Degenerate != 0 {
			t.Errorf("step %d saw %d degenerate samples", e.Step, e.Density.Degenerate)
		}
		if d := e.Density.GridMass - e.Density.TracerMass; d > 0.2*e.Density.TracerMass || d < -0.2*e.Density.TracerMass {
			t.Errorf("step %d grid mass %g far from tracer mass %g",
				e.Step, e.Density.GridMass, e.Density.TracerMass)
		}

		grid, n, err := h.Client.DensityGrid(ctx, st.ID, e.Step)
		if err != nil {
			t.Fatalf("fetch density grid step %d: %v", e.Step, err)
		}
		if n != 16 {
			t.Errorf("grid header n = %d, want 16", n)
		}
		if !bytes.Equal(grid, want[e.Step-1]) {
			t.Errorf("step %d: daemon grid (%d bytes) differs from direct ComputeDensity (%d bytes)",
				e.Step, len(grid), len(want[e.Step-1]))
		}
		sum := sha256.Sum256(grid)
		if got := hex.EncodeToString(sum[:]); got != e.Density.Digest {
			t.Errorf("step %d: served grid hashes to %s, digest says %s", e.Step, got, e.Density.Digest)
		}

		z := n / 2
		slice, sn, err := h.Client.DensitySlice(ctx, st.ID, e.Step, z)
		if err != nil {
			t.Fatalf("fetch density slice step %d z=%d: %v", e.Step, z, err)
		}
		if sn != n {
			t.Errorf("slice header n = %d, want %d", sn, n)
		}
		plane := n * n * 8
		if !bytes.Equal(slice, grid[z*plane:(z+1)*plane]) {
			t.Errorf("step %d z=%d: slice is not the matching sub-range of the full grid", e.Step, z)
		}
	}

	// The grid outlives the job: a late fetch of step 1 still works, and
	// out-of-range requests map to clean HTTP errors.
	if _, _, err := h.Client.DensityGrid(ctx, st.ID, 1); err != nil {
		t.Errorf("post-completion grid fetch failed: %v", err)
	}
	var apiErr *jobd.APIError
	if _, _, err := h.Client.DensityGrid(ctx, st.ID, 99); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("missing step: err = %v, want 404", err)
	}
	if _, _, err := h.Client.DensitySlice(ctx, st.ID, 1, 999); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("bad z: err = %v, want 400", err)
	}
}

// Density-spec validation surfaces as 400 at admission.
func TestE2EDensitySpecValidation(t *testing.T) {
	h := startDaemon(t, jobd.Config{Limits: jobd.Limits{MaxGridN: 32}})
	ctx := context.Background()
	var apiErr *jobd.APIError
	for name, ds := range map[string]*jobd.DensitySpec{
		"tiny grid":     {GridN: 1},
		"over limit":    {GridN: 64},
		"non-pow2 fft":  {GridN: 12, Spectrum: true},
		"bad percentle": {GridN: 8, Percentiles: []float64{101}},
	} {
		spec := happySpec(30, 1)
		spec.Density = ds
		if _, err := h.Client.Submit(ctx, spec); !errors.As(err, &apiErr) || apiErr.Status != 400 {
			t.Errorf("%s: err = %v, want 400", name, err)
		}
	}
	spec := happySpec(31, 1)
	spec.Density = &jobd.DensitySpec{GridN: 12} // non-pow2 fine without spectrum
	if _, err := h.Client.Submit(ctx, spec); err != nil {
		t.Errorf("valid density spec rejected: %v", err)
	}
}

// A checkpointing job killed mid-run is resubmitted through the resume
// endpoint and picks up from its last committed checkpoint instead of
// starting over. The crashed run's meshes plus the resumed run's meshes
// together must be byte-identical to an uninterrupted direct session.
func TestE2EResumeFromCheckpoint(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	ctx := context.Background()

	spec := happySpec(40, 3)
	spec.Name = "resumable"
	spec.CheckpointDir = filepath.Join(t.TempDir(), "ck")
	// Fault checkpoints accumulate four per session step; checkpoint 10
	// is step 3's "compute" site, so steps 1-2 complete and checkpoint.
	// The resumed session replays only step 3 (checkpoints 1-4 of its
	// own injector), so the same plan never fires again.
	spec.Fault = &jobd.FaultSpec{Seed: 41, CrashRank: 1, CrashStep: 10}

	st := h.Submit(t, spec)
	events, final := h.Wait(t, st.ID, e2eWait)
	if final.State != jobd.StateFailed || final.StepsDone != 2 {
		t.Fatalf("crashed job final = %+v, want failed after 2 steps", final)
	}
	firstMeshes := stepMeshes(t, events)
	if len(firstMeshes) != 2 {
		t.Fatalf("crashed job streamed %d step meshes, want 2", len(firstMeshes))
	}

	st2, err := h.Client.Resume(ctx, st.ID)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st2.ID == st.ID {
		t.Fatalf("resume reused job id %s instead of minting a fresh one", st.ID)
	}
	events2, final2 := h.Wait(t, st2.ID, e2eWait)
	if final2.State != jobd.StateDone || final2.StepsDone != 3 {
		t.Fatalf("resumed job final = %+v, want done after 3 steps", final2)
	}
	wantTypes := []string{"queued", "started", "resumed", "step", "done"}
	if len(events2) != len(wantTypes) {
		t.Fatalf("resumed job emitted %d events, want %d", len(events2), len(wantTypes))
	}
	for i, e := range events2 {
		if e.Type != wantTypes[i] {
			t.Errorf("resumed event %d type = %q, want %q", i, e.Type, wantTypes[i])
		}
	}
	if events2[2].Step != 2 {
		t.Errorf("resumed event reports %d skipped steps, want 2", events2[2].Step)
	}
	term := terminal(t, events2)
	if term.Type != "done" || term.Steps != 3 {
		t.Fatalf("resumed terminal = %+v, want done with 3 steps", term)
	}

	// Byte identity across the kill: run-1 steps 1-2 plus run-2 step 3
	// equal the uninterrupted direct session end to end.
	want := directMeshes(t, happySpec(40, 3))
	got := append(firstMeshes, stepMeshes(t, events2)...)
	if len(got) != len(want) {
		t.Fatalf("stitched runs produced %d meshes, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("step %d mesh differs from uninterrupted direct session", i+1)
		}
	}

	// A checkpoint the daemon cannot use is reported, not papered over:
	// one resume-fallback event carrying the reason, between started and
	// the first step, and the job still runs from step 1 to done with the
	// direct session's bytes. First a truncated manifest, then (over the
	// checkpoint that run left behind) another job's block count, then a
	// manifest of the previous format version, which is refused by number
	// rather than migrated.
	manifest := filepath.Join(spec.CheckpointDir, "manifest.json")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	fresh := happySpec(40, 3)
	fresh.CheckpointDir = spec.CheckpointDir
	fourBlocks := fresh
	fourBlocks.Blocks = 4
	for _, tc := range []struct {
		name     string
		manifest string // written over the committed one when non-empty
		spec     jobd.JobSpec
		reason   string
	}{
		{"truncated manifest", string(raw[:len(raw)/2]), fresh, "manifest"},
		{"wrong block count", "", fourBlocks, "blocks 4 does not match checkpoint 2"},
		{"version-1 manifest", `{"version": 1, "steps": 2, "num_blocks": 2, "periodic": true,
			"domain": [0, 0, 0, 8, 8, 8], "ghost": 3, "decomp": "grid", "rebalances": 0,
			"last_imbalance": 1.01, "warm_sites": [100, 100], "cold_sites": [200, 200]}`,
			fresh, "checkpoint version 1"},
	} {
		if tc.manifest != "" {
			if err := os.WriteFile(manifest, []byte(tc.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		events, final := h.Wait(t, h.Submit(t, tc.spec).ID, e2eWait)
		if final.State != jobd.StateDone || final.StepsDone != 3 {
			t.Fatalf("%s: final = %+v, want done after 3 steps", tc.name, final)
		}
		var types []string
		for _, e := range events {
			types = append(types, e.Type)
		}
		if got := strings.Join(types, " "); got != "queued started resume-fallback step step step done" {
			t.Fatalf("%s: events = %s", tc.name, got)
		}
		fb := events[2].Error
		if fb == nil || fb.Kind != "checkpoint" || !strings.Contains(fb.Message, tc.reason) {
			t.Errorf("%s: resume-fallback error = %+v, want kind checkpoint mentioning %q", tc.name, fb, tc.reason)
		}
		want := directMeshes(t, tc.spec)
		for i, got := range stepMeshes(t, events) {
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s: step %d mesh differs from the direct session", tc.name, i+1)
			}
		}
	}

	// A completed job is not resumable, and unknown ids stay 404.
	var apiErr *jobd.APIError
	if _, err := h.Client.Resume(ctx, st2.ID); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("resume of done job: err = %v, want 400 APIError", err)
	}
	if _, err := h.Client.Resume(ctx, "j9999"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("resume of unknown job: err = %v, want 404 APIError", err)
	}
}

// An out-of-core job reads its particles from a chunked snapshot file on
// the daemon's filesystem through a bounded resident window, and its
// mesh is byte-identical to the same particles submitted inline.
func TestE2ESnapshotURIJob(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	ctx := context.Background()

	snap := snapshots(50, 1, 6, 8)
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := tess.WriteSnapshot(path, particles(snap[0]), 4); err != nil {
		t.Fatal(err)
	}
	spec := jobd.JobSpec{
		L:            8,
		Blocks:       2,
		Ghost:        3,
		SnapshotURI:  path,
		SourceWindow: 2,
		IncludeMesh:  true,
	}
	st := h.Submit(t, spec)
	events, final := h.Wait(t, st.ID, e2eWait)
	if final.State != jobd.StateDone || final.StepsDone != 1 {
		t.Fatalf("uri job final = %+v, want done after 1 step", final)
	}
	got := stepMeshes(t, events)
	inline := spec
	inline.SnapshotURI, inline.SourceWindow = "", 0
	inline.Snapshots = snap
	want := directMeshes(t, inline)
	if len(got) != 1 || !bytes.Equal(got[0], want[0]) {
		t.Error("uri job mesh differs from the inline direct session")
	}

	// Source-spec validation is 400 at admission.
	var apiErr *jobd.APIError
	both := spec
	both.Snapshots = snap
	if _, err := h.Client.Submit(ctx, both); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("uri+inline sources: err = %v, want 400", err)
	}
	win := happySpec(51, 1)
	win.SourceWindow = 2
	if _, err := h.Client.Submit(ctx, win); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("window without uri: err = %v, want 400", err)
	}
	dens := spec
	dens.Density = &jobd.DensitySpec{GridN: 8}
	if _, err := h.Client.Submit(ctx, dens); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("density with uri: err = %v, want 400", err)
	}

	// A missing snapshot file fails the job at run time — a structured
	// error, not a hang.
	missing := spec
	missing.SnapshotURI = filepath.Join(t.TempDir(), "nope.bin")
	st2 := h.Submit(t, missing)
	_, final2 := h.Wait(t, st2.ID, e2eWait)
	if final2.State != jobd.StateFailed || final2.Error == nil {
		t.Fatalf("missing-snapshot job final = %+v, want failed with error info", final2)
	}
}

// A snapshot file holding more particles than Limits.MaxParticles is
// admitted (its size is known only once the file is opened) and then fails
// with a spec error naming the limit.
func TestE2ESnapshotURIOverParticleLimit(t *testing.T) {
	h := startDaemon(t, jobd.Config{Limits: jobd.Limits{MaxParticles: 100}})
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := tess.WriteSnapshot(path, particles(snapshot(90, 6, 8)), 2); err != nil {
		t.Fatal(err)
	}
	st := h.Submit(t, jobd.JobSpec{L: 8, Blocks: 2, Ghost: 3, SnapshotURI: path})
	events, final := h.Wait(t, st.ID, e2eWait)
	term := terminal(t, events)
	if term.Type != "error" || term.Error == nil || term.Error.Kind != "spec" ||
		!strings.Contains(term.Error.Message, "216 particles") || !strings.Contains(term.Error.Message, "limit of 100") {
		t.Fatalf("terminal event = %+v (error %+v), want a spec error naming 216 particles and the limit of 100", term, term.Error)
	}
	if final.State != jobd.StateFailed || final.StepsDone != 0 {
		t.Errorf("final = %+v, want failed before any step", final)
	}
}

// Finished jobs keep their payload only under Config.RetainBytes. With a
// bound smaller than any one job, each job that finishes evicts the one
// that finished before it — and only that: the job that just finished
// stays replayable, a running job is never touched, and what is left of an
// evicted job is its status, a 410 with the reason on its event stream and
// density endpoint, and a 4xx (not a panic) from resume.
func TestE2EEvictionUnderRetainBytes(t *testing.T) {
	const gated = "j0003" // the third job submitted is held at its first step
	gate := make(chan struct{})
	h := startDaemon(t, jobd.Config{
		MaxActive:   2,
		RetainBytes: 4 << 10,
		BeforeStep: func(jobID string, step int) {
			if jobID == gated {
				<-gate
			}
		},
	})
	ctx := context.Background()
	gone := func(what string, err error) {
		t.Helper()
		var apiErr *jobd.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
			t.Fatalf("%s: err = %v, want a 410 APIError", what, err)
		}
		if !strings.Contains(apiErr.Message, "evicted") || !strings.Contains(apiErr.Message, "retention bound") {
			t.Errorf("%s: 410 body %q does not give the reason", what, apiErr.Message)
		}
	}
	replay := func(id string) (n int, err error) {
		err = h.Client.Events(ctx, id, 0, func(jobd.Event) error { n++; return nil })
		return n, err
	}

	// A failed job, then a density job: the second evicts the first.
	crash := happySpec(40, 2)
	crash.Fault = &jobd.FaultSpec{Seed: 13, CrashRank: 1, CrashStep: 2}
	failed := h.Submit(t, crash)
	if _, st := h.Wait(t, failed.ID, e2eWait); st.State != jobd.StateFailed {
		t.Fatalf("crash job ended %q, want failed", st.State)
	}
	if s := h.D.Stats(); s.EvictedJobs != 0 || s.RetainedBytes == 0 {
		t.Fatalf("after one job: stats %+v, want its payload retained and nothing evicted", s)
	}
	dens := happySpec(41, 1)
	dens.Density = &jobd.DensitySpec{GridN: 8}
	oldest := h.Submit(t, dens)
	h.Wait(t, oldest.ID, e2eWait)
	if _, _, err := h.Client.DensityGrid(ctx, oldest.ID, 1); err != nil {
		t.Fatalf("density grid of the job that just finished: %v", err)
	}
	_, err := replay(failed.ID)
	gone("evicted failed job's stream", err)
	_, err = h.Client.Resume(ctx, failed.ID)
	var apiErr *jobd.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, "evicted") {
		t.Errorf("resume of an evicted job: err = %v, want a 400 naming the eviction", err)
	}

	// A job held at its first step, and a third job finishing meanwhile.
	running := h.Submit(t, happySpec(42, 1))
	if running.ID != gated {
		t.Fatalf("gated job got id %s, want %s", running.ID, gated)
	}
	newest := h.Submit(t, happySpec(43, 2))
	newestEvents, _ := h.Wait(t, newest.ID, e2eWait)

	_, err = replay(oldest.ID)
	gone("oldest finished job's stream", err)
	_, _, err = h.Client.DensityGrid(ctx, oldest.ID, 1)
	gone("oldest finished job's density grid", err)
	if st, err := h.Client.Status(ctx, oldest.ID); err != nil || st.State != jobd.StateDone || st.Steps != 1 || st.StepsDone != 1 {
		t.Errorf("evicted job's status = %+v, %v; want done, 1 of 1 steps", st, err)
	}
	if n, err := replay(newest.ID); err != nil || n != len(newestEvents) {
		t.Errorf("newest job replays %d events (%v), want %d", n, err, len(newestEvents))
	}
	if st, err := h.Client.Status(ctx, running.ID); err != nil || st.State != jobd.StateRunning {
		t.Errorf("gated job's status = %+v, %v; want running", st, err)
	}
	s := h.D.Stats()
	if s.EvictedJobs != 2 || s.RetainBytes != 4<<10 {
		t.Errorf("stats %+v, want 2 evicted under a 4 KiB bound", s)
	}
	var newestBytes int64 // what the one retained job weighs: its meshes and inline snapshots
	for _, e := range newestEvents {
		newestBytes += int64(len(e.MeshB64))
	}
	newestBytes += 2 * 216 * 24
	if s.RetainedBytes != newestBytes {
		t.Errorf("retained_bytes = %d, want the newest job's %d", s.RetainedBytes, newestBytes)
	}

	// Released, the gated job finishes with its whole stream and evicts in
	// turn.
	close(gate)
	if _, st := h.Wait(t, running.ID, e2eWait); st.State != jobd.StateDone {
		t.Fatalf("gated job ended %q, want done", st.State)
	}
	_, err = replay(newest.ID)
	gone("second-newest job's stream", err)
}

// A long-lived daemon's memory is bounded by RetainBytes, not by how many
// jobs it has run: over 200 sequential jobs the retained payload never
// exceeds the bound, and the live heap after job 200 is what it was after
// job 50 (without the bound it grows by every job's event log).
func TestRetainedBytesBounded(t *testing.T) {
	const bound = 1 << 20
	h := startDaemon(t, jobd.Config{RetainBytes: bound})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var perJob int64
	var heap50 uint64
	for i := 1; i <= 200; i++ {
		spec := happySpec(int64(100+i), 1)
		st := h.Submit(t, spec)
		if _, final := h.Wait(t, st.ID, e2eWait); final.State != jobd.StateDone {
			t.Fatalf("job %d ended %q", i, final.State)
		}
		s := h.D.Stats()
		if s.RetainedBytes > bound || s.RetainedBytes <= 0 {
			t.Fatalf("after job %d: retained_bytes = %d, bound %d", i, s.RetainedBytes, bound)
		}
		if i == 1 {
			perJob = s.RetainedBytes
		}
		if i == 50 {
			heap50 = heap()
		}
	}
	s := h.D.Stats()
	if s.EvictedJobs == 0 || s.EvictedJobs >= 200 {
		t.Fatalf("%d of 200 jobs evicted at %d B per job under a %d B bound", s.EvictedJobs, perJob, bound)
	}
	// 150 more jobs of perJob bytes each is what an unbounded daemon adds;
	// allow a tenth of that for the statuses it does keep and for noise.
	heap200 := heap()
	if grew := int64(heap200) - int64(heap50); grew > 150*perJob/10 {
		t.Errorf("live heap grew %d B between job 50 and job 200 (%d -> %d); an unbounded log would add %d",
			grew, heap50, heap200, 150*perJob)
	}
}
