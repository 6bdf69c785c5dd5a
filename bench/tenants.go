package main

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	tess "repro"
	"repro/internal/jobd"
)

// tenants is the tessd-tenants workload: closed-loop tenants posting small
// inline jobs to a real jobd.Daemon over loopback HTTP and streaming each
// job's events to its terminal event. One op is one job, submit to done.
type tenants struct {
	p     params
	specs []jobd.JobSpec // one per tenant; every job of a tenant is the same spec

	daemon *jobd.Daemon
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	client *jobd.Client
	tp     *http.Transport

	last []jobStat // per driver: the job that just ran
	// expect[d][s] is the mesh_b64 of step s of tenant d's first job; every
	// later job must stream the same bytes, and Check requires them to
	// equal a direct session's.
	expect [][]string

	eventBytes, cells atomic.Int64 // over the window's jobs
	outBytes          float64
}

const (
	tenantL      = 8.0
	tenantSide   = 8 // 8^3 particles per snapshot
	tenantSteps  = 3
	tenantBlocks = 2
	tenantGhost  = 3.0
	jobTimeout   = 2 * time.Minute
	// tenantWarmupJobs is how many jobs each tenant runs, all tenants at
	// once, between the first job and the window.
	tenantWarmupJobs = 3
)

func newTenants(p params) workload {
	return &tenants{p: p}
}

func (w *tenants) Drivers() int { return len(w.specs) }

// tenantSnapshots is a tenant's input: per step a jittered 8^3 lattice in
// the wire format of jobd.JobSpec, seeded from the run's seed.
//
// A lattice whose job would fail is drawn again from the same stream. With
// include_mesh the daemon merges every step canonically, and
// tess.MergeCanonical rejects about one of these lattices in 180 ("degenerate
// vertex (plane determinant 0)": 20 of the 3600 lattices of seeds 1-300; see
// README, "Known baselines") — one seed in 25 on two tenants, where the
// workload is to hold no op that fails. The screen is the job's own
// computation: a step's canonical bytes depend on its snapshot alone.
func tenantSnapshots(seed int64, tenant int) ([][][3]float64, error) {
	const maxDraws = 8
	cfg := tenantConfig()
	out := make([][][3]float64, tenantSteps)
	for s := range out {
		rng := rand.New(rand.NewSource(seed*1000 + int64(tenant)*10 + int64(s)))
		for draw := 1; ; draw++ {
			snap := jitteredLattice(rng)
			step, err := tess.Run(cfg, tenantParticles(snap), tenantBlocks)
			if err == nil {
				_, err = tess.MergeCanonical(step.Meshes, cfg.Domain, cfg.Periodic)
			}
			if err == nil {
				out[s] = snap
				break
			}
			if draw == maxDraws {
				return nil, fmt.Errorf("tenant %d step %d: no usable lattice in %d draws: %w", tenant, s+1, maxDraws, err)
			}
		}
	}
	return out, nil
}

// jitteredLattice draws one 8^3 lattice with every point moved by up to 0.45
// of the spacing along each axis.
func jitteredLattice(rng *rand.Rand) [][3]float64 {
	h := tenantL / tenantSide
	snap := make([][3]float64, 0, tenantSide*tenantSide*tenantSide)
	for z := 0; z < tenantSide; z++ {
		for y := 0; y < tenantSide; y++ {
			for x := 0; x < tenantSide; x++ {
				snap = append(snap, [3]float64{
					(float64(x)+0.5)*h + (rng.Float64()-0.5)*0.9*h,
					(float64(y)+0.5)*h + (rng.Float64()-0.5)*0.9*h,
					(float64(z)+0.5)*h + (rng.Float64()-0.5)*0.9*h,
				})
			}
		}
	}
	return snap
}

// byteCounterKey carries a job's *atomic.Int64 in the request context; the
// transport adds every response-body byte read under it.
type byteCounterKey struct{}

type countingTransport struct{ base http.RoundTripper }

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if n, ok := req.Context().Value(byteCounterKey{}).(*atomic.Int64); ok && err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (w *tenants) Setup() (time.Duration, error) {
	for t := 0; t < tenantCount(); t++ {
		snaps, err := tenantSnapshots(w.p.Seed, t)
		if err != nil {
			return 0, err
		}
		w.specs = append(w.specs, jobd.JobSpec{
			Name: fmt.Sprintf("tenant-%d", t), L: tenantL, Blocks: tenantBlocks, Ghost: tenantGhost,
			Snapshots: snaps, IncludeMesh: true,
		})
	}
	w.last = make([]jobStat, len(w.specs))
	w.expect = make([][]string, len(w.specs))

	w.daemon = jobd.New(jobd.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	w.srv = &http.Server{Handler: w.daemon.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(lis) // returns ErrServerClosed on Shutdown
	}()
	w.tp = &http.Transport{MaxIdleConnsPerHost: 2 * len(w.specs)}
	w.client = &jobd.Client{
		Base: "http://" + lis.Addr().String(),
		HTTP: &http.Client{Transport: countingTransport{w.tp}},
	}

	// The first job meets a fresh daemon alone; the warm-up jobs then run
	// with every tenant active, as the window will.
	t0 := time.Now()
	if _, err := w.Op(0, 0); err != nil {
		return 0, err
	}
	first := time.Since(t0)
	if err := w.Verify(0, 0); err != nil {
		return 0, err
	}
	errs := make([]error, len(w.specs))
	var wg sync.WaitGroup
	for d := range w.specs {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 1; i <= tenantWarmupJobs && errs[d] == nil; i++ {
				if _, errs[d] = w.Op(d, i); errs[d] == nil {
					errs[d] = w.Verify(d, i)
				}
			}
		}(d)
	}
	wg.Wait()
	w.eventBytes.Store(0)
	w.cells.Store(0)
	return first, errors.Join(errs...)
}

// jobStat is what the client saw of one job.
type jobStat struct {
	submit    time.Duration // the Submit call
	firstStep time.Duration // submit start to the first step event's arrival
	total     time.Duration // submit start to the terminal event's arrival
	queueWait time.Duration // event timestamps: queued -> started
	run       time.Duration // event timestamps: started -> terminal
	bytes     int64         // event-stream bytes
	sites     int64
	cells     int64
	terminal  string
	meshes    []string // mesh_b64 of each step event
}

// runJob submits spec and streams its events to the end. tid is the
// driver's trace thread; tr is nil for an untraced job.
func (w *tenants) runJob(spec jobd.JobSpec, tr *tracer, op, tid int) (jobStat, error) {
	var st jobStat
	var nbytes atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	root := tr.begin("job", -1, op, tid)
	defer tr.end(root)

	t0 := time.Now()
	tm := tr.start("jobd.Client.Submit", root, op, tid)
	js, err := w.client.Submit(ctx, spec)
	st.submit = tm.stop()
	if err != nil {
		return st, err
	}
	var queued, started, ended time.Time
	tm = tr.start("jobd.Client.Events", root, op, tid)
	err = w.client.Events(context.WithValue(ctx, byteCounterKey{}, &nbytes), js.ID, 0, func(e jobd.Event) error {
		switch e.Type {
		case "queued":
			queued = e.Time
		case "started":
			started = e.Time
		case "step":
			if len(st.meshes) == 0 {
				st.firstStep = time.Since(t0)
			}
			st.meshes = append(st.meshes, e.MeshB64)
			st.sites += e.Sites
			st.cells += e.Cells
		case "done", "error", "canceled":
			ended = e.Time
			st.terminal = e.Type
		}
		return nil
	})
	tm.stop()
	st.total = time.Since(t0)
	st.bytes = nbytes.Load()
	st.queueWait, st.run = started.Sub(queued), ended.Sub(started)
	return st, err
}

func (w *tenants) Op(d, i int) (int64, error) {
	spec := w.specs[d]
	tr := w.p.tracerFor(i)
	if tr != nil {
		spec.IncludeObs = true // the daemon-side cost of a traced job: a recorder per session
	}
	st, err := w.runJob(spec, tr, i, d)
	w.last[d] = st
	if err != nil {
		return 0, err
	}
	w.eventBytes.Add(st.bytes)
	w.cells.Add(st.cells)
	return st.sites, nil
}

func (w *tenants) Verify(d, i int) error {
	st := &w.last[d]
	if st.terminal != "done" {
		return fmt.Errorf("job ended %q, want done", st.terminal)
	}
	if len(st.meshes) != tenantSteps {
		return fmt.Errorf("job streamed %d step events, want %d", len(st.meshes), tenantSteps)
	}
	if w.expect[d] == nil {
		w.expect[d] = st.meshes
		return nil
	}
	for s, m := range st.meshes {
		if m != w.expect[d][s] {
			return fmt.Errorf("step %d mesh differs from the tenant's first job", s+1)
		}
	}
	return nil
}

// tenantConfig mirrors JobSpec.config: the public periodic defaults with
// the spec's ghost size.
func tenantConfig(opts ...tess.Option) tess.Config {
	return tess.NewPeriodicConfig(tenantL, append([]tess.Option{tess.WithGhostSize(tenantGhost)}, opts...)...)
}

func tenantParticles(snap [][3]float64) []tess.Particle {
	ps := make([]tess.Particle, len(snap))
	for i, q := range snap {
		ps[i] = tess.Particle{ID: int64(i), Pos: tess.Vec3{X: q[0], Y: q[1], Z: q[2]}}
	}
	return ps
}

// canonicalBytes is the decomposition-independent encoding of a step: the
// canonical merge of its blocks in the v1 format.
func canonicalBytes(out *tess.Output, cfg tess.Config) ([]byte, error) {
	merged, err := tess.MergeCanonical(out.Meshes, cfg.Domain, cfg.Periodic)
	if err != nil {
		return nil, err
	}
	return merged.Encode()
}

// directJob runs a tenant's snapshots through Open/Step/MergeCanonical/
// Close directly — no daemon, no HTTP — and returns each step's mesh in the
// stream's encoding.
func (w *tenants) directJob(spec jobd.JobSpec, cfg tess.Config, tr *tracer, op int, phases *phaseSamples) ([]string, tess.SessionStats, error) {
	root := tr.begin("direct", -1, op, 0)
	defer tr.end(root)
	tm := tr.start("tess.Open", root, op, 0)
	sess, err := tess.Open(cfg, spec.Blocks)
	tm.stop()
	if err != nil {
		return nil, tess.SessionStats{}, err
	}
	defer sess.Close()
	var meshes []string
	for _, snap := range spec.Snapshots {
		tm = tr.start("tess.Session.Step", root, op, 0)
		out, err := sess.Step(tenantParticles(snap))
		wall := tm.stop()
		if err != nil {
			return nil, tess.SessionStats{}, err
		}
		if phases != nil {
			phases.add(out.Obs, wall)
		}
		tm = tr.start("tess.MergeCanonical+Encode", root, op, 0)
		enc, err := canonicalBytes(out, cfg)
		tm.stop()
		if err != nil {
			return nil, tess.SessionStats{}, err
		}
		meshes = append(meshes, base64.StdEncoding.EncodeToString(enc))
	}
	stats := sess.Stats()
	tm = tr.start("tess.Session.Close", root, op, 0)
	sess.Close() // always nil
	tm.stop()
	return meshes, stats, nil
}

// Check requires every tenant's streamed meshes to equal the direct
// session's canonical bytes for the same snapshots.
func (w *tenants) Check() []error {
	var errs []error
	for d, spec := range w.specs {
		want, _, err := w.directJob(spec, tenantConfig(), nil, -1, nil)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for s := range want {
			if w.expect[d] == nil || w.expect[d][s] != want[s] {
				errs = append(errs, fmt.Errorf("tenant %d step %d: daemon mesh differs from the direct session's", d, s+1))
			}
		}
	}
	if cells := w.cells.Load(); cells > 0 {
		w.outBytes = float64(w.eventBytes.Load()) / float64(cells)
	}
	return errs
}

func (w *tenants) OutBytesPerCell() float64 { return w.outBytes }

// Layers runs the single-tenant pass (what one job costs with nothing else
// contending) and the same snapshots through a direct session, then the
// layer replay of one snapshot.
func (w *tenants) Layers(set func(string, float64, int)) error {
	tr := w.p.tr
	passes := 12
	if w.p.Tiny {
		passes = 3
	}
	spec := w.specs[0]
	plain := tenantConfig()
	recorded := tenantConfig(tess.WithRecorder(tess.NewRecorder(spec.Blocks)))
	var submit, queue, first, run, total, direct []time.Duration
	var evBytes []float64
	var phases phaseSamples
	var stats tess.SessionStats
	// Each pass runs the job through the daemon, then directly (timed
	// plain, the two interleaved so they meet the same machine state), then
	// directly once more with spans and a recorder for the core.* numbers.
	for i := 0; i < passes; i++ {
		st, err := w.runJob(spec, tr, 1000+i, 0)
		if err != nil {
			return err
		}
		if st.terminal != "done" {
			return fmt.Errorf("single-tenant job ended %q", st.terminal)
		}
		submit, queue, first = append(submit, st.submit), append(queue, st.queueWait), append(first, st.firstStep)
		run, total = append(run, st.run), append(total, st.total)
		evBytes = append(evBytes, float64(st.bytes))

		t0 := time.Now()
		meshes, _, err := w.directJob(spec, plain, nil, -1, nil)
		if err != nil {
			return err
		}
		direct = append(direct, time.Since(t0))
		for s := range meshes {
			if meshes[s] != w.expect[0][s] {
				return fmt.Errorf("direct pass step %d differs from the daemon's mesh", s+1)
			}
		}
		if _, stats, err = w.directJob(spec, recorded, tr, 2000+i, &phases); err != nil {
			return err
		}
	}
	ms := func(ds []time.Duration) float64 { return median(ds).Seconds() * 1e3 }
	set("jobd.submit_ms_p50", ms(submit), passes)
	set("jobd.queue_wait_ms_p50", ms(queue), passes)
	set("jobd.first_step_ms_p50", ms(first), passes)
	set("jobd.run_ms_p50", ms(run), passes)
	set("jobd.event_bytes_per_job", median(evBytes), passes)
	set("jobd.rejected", float64(w.daemon.Stats().Rejected), 1)
	set("jobd.direct_s_p50", median(direct).Seconds(), passes)
	set("jobd.overhead_frac", median(total).Seconds()/median(direct).Seconds()-1, passes)
	for _, m := range []struct{ metric, span string }{
		{"core.open_s", "tess.Open"},
		{"core.close_s", "tess.Session.Close"},
		{"core.step_s_p50", "tess.Session.Step"},
	} {
		v, n := tr.p50(m.span)
		set(m.metric, v, n)
	}
	phases.report(set)
	set("core.warm_site_frac", float64(stats.WarmSites)/float64(stats.WarmSites+stats.ColdSites), 1)

	// Replay the job's last snapshot; the reference is a direct step.
	ps := tenantParticles(spec.Snapshots[tenantSteps-1])
	sess, err := tess.Open(plain, spec.Blocks)
	if err != nil {
		return err
	}
	defer sess.Close()
	out, err := sess.Step(ps)
	if err != nil {
		return err
	}
	meshes, err := replayTess(w.p, ps, replaySpec{cfg: plain, blocks: spec.Blocks, encodeV1: true, merge: true}, set)
	if err != nil {
		return err
	}
	if err := sameCells(meshes, out.Meshes); err != nil {
		return fmt.Errorf("layer replay differs from the session: %w", err)
	}
	return nil
}

// Close shuts the listener down, drains the daemon, and waits for the
// serving goroutine.
func (w *tenants) Close() {
	if w.daemon == nil {
		return
	}
	defer func() {
		w.daemon.Close()
		w.daemon = nil
	}()
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		w.srv.Close() // streams that outlived the grace period
	}
	<-w.served
	w.tp.CloseIdleConnections()
	w.srv = nil
}
