package jobd_test

// The in-process end-to-end harness of the tessd daemon: it boots a real
// jobd.Daemon on a loopback listener and drives it through the actual HTTP
// surface — the same bytes a remote tenant would see — so the e2e suite
// covers admission control, NDJSON streaming, cancellation, and tenant
// isolation without any out-of-process machinery (and therefore runs fine
// under -race).

import (
	"context"
	"encoding/base64"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	tess "repro"
	"repro/internal/jobd"
)

// harness is a running daemon plus a typed client bound to it.
type harness struct {
	// D is the daemon under test (for direct assertions on Stats etc.).
	D *jobd.Daemon
	// Client speaks the real HTTP API over the loopback listener.
	Client *jobd.Client
	// BaseURL is the daemon's http://127.0.0.1:<port> base.
	BaseURL string
}

// startDaemon boots a daemon with cfg on a loopback listener and registers
// cleanup with t. The returned harness is ready to accept jobs.
func startDaemon(t testing.TB, cfg jobd.Config) *harness {
	t.Helper()
	d := jobd.New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("harness: listen: %v", err)
	}
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(lis) //nolint:errcheck // returns ErrServerClosed on shutdown
	h := &harness{
		D:       d,
		BaseURL: "http://" + lis.Addr().String(),
	}
	h.Client = &jobd.Client{Base: h.BaseURL}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		d.Close()
	})
	return h
}

// Submit posts spec and fails the test on any rejection.
func (h *harness) Submit(t testing.TB, spec jobd.JobSpec) jobd.JobStatus {
	t.Helper()
	st, err := h.Client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("harness: submit: %v", err)
	}
	return st
}

// Wait streams a job's events until its terminal event (bounded by
// timeout) and returns the events plus the final status.
func (h *harness) Wait(t testing.TB, id string, timeout time.Duration) ([]jobd.Event, jobd.JobStatus) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var events []jobd.Event
	err := h.Client.Events(ctx, id, 0, func(e jobd.Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		t.Fatalf("harness: wait %s: %v (got %d events)", id, err, len(events))
	}
	terminal(t, events)
	st, err := h.Client.Status(ctx, id)
	if err != nil {
		t.Fatalf("harness: status %s: %v", id, err)
	}
	return events, st
}

// stepMeshes decodes the merged canonical mesh bytes of every step event,
// in step order.
func stepMeshes(t testing.TB, events []jobd.Event) [][]byte {
	t.Helper()
	var out [][]byte
	for _, e := range events {
		if e.Type != "step" {
			continue
		}
		if e.MeshB64 == "" {
			t.Fatalf("harness: step %d event has no mesh payload", e.Step)
		}
		raw, err := base64.StdEncoding.DecodeString(e.MeshB64)
		if err != nil {
			t.Fatalf("harness: step %d mesh decode: %v", e.Step, err)
		}
		out = append(out, raw)
	}
	return out
}

// directDensityGrids runs the spec's density pipeline directly — no
// daemon, no session — and returns each step's encoded grid. The config
// mirrors what a job's session applies to a zero-Box density config:
// the periodic [0, L)^3 domain with the ghost size as padding depth.
// This is the byte-identity oracle for daemon-served density grids.
func directDensityGrids(t testing.TB, spec jobd.JobSpec) [][]byte {
	t.Helper()
	if spec.Density == nil {
		t.Fatal("harness: spec has no density section")
	}
	ghost := spec.Ghost
	if ghost <= 0 {
		ghost = tess.NewPeriodicConfig(spec.L).GhostSize
	}
	dc := tess.DensityConfig{
		GridN:         spec.Density.GridN,
		Box:           tess.Box{Max: tess.Vec3{X: spec.L, Y: spec.L, Z: spec.L}},
		Periodic:      true,
		Pad:           ghost,
		Spectrum:      spec.Density.Spectrum,
		VoidThreshold: spec.Density.VoidThreshold,
		Percentiles:   spec.Density.Percentiles,
	}
	var out [][]byte
	for i, snap := range spec.Snapshots {
		pts := make([]tess.Vec3, len(snap))
		for j, p := range snap {
			pts[j] = tess.Vec3{X: p[0], Y: p[1], Z: p[2]}
		}
		res, err := tess.ComputeDensity(dc, pts, nil)
		if err != nil {
			t.Fatalf("harness: direct density step %d: %v", i+1, err)
		}
		out = append(out, tess.EncodeDensityGrid(res.Grid))
	}
	return out
}

// terminal returns the stream's terminal event and fails if there is not
// exactly one, at the end.
func terminal(t testing.TB, events []jobd.Event) jobd.Event {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("harness: empty event stream")
	}
	for i, e := range events {
		term := e.Type == "done" || e.Type == "error" || e.Type == "canceled"
		if term != (i == len(events)-1) {
			t.Fatalf("harness: terminal event misplaced: event %d of %d is %q", i, len(events), e.Type)
		}
	}
	return events[len(events)-1]
}

// snapshots builds deterministic per-step particle snapshots (n^3
// jittered lattice sites in [0, L)^3, the same construction the repo's
// session tests use) in the wire format of jobd.JobSpec.
func snapshots(seed int64, steps, n int, L float64) [][][3]float64 {
	out := make([][][3]float64, steps)
	for s := range out {
		out[s] = snapshot(seed+int64(s), n, L)
	}
	return out
}

func snapshot(seed int64, n int, L float64) [][3]float64 {
	rng := rand.New(rand.NewSource(seed))
	h := L / float64(n)
	var pos [][3]float64
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pos = append(pos, [3]float64{
					(float64(x)+0.5)*h + (rng.Float64()-0.5)*0.9*h,
					(float64(y)+0.5)*h + (rng.Float64()-0.5)*0.9*h,
					(float64(z)+0.5)*h + (rng.Float64()-0.5)*0.9*h,
				})
			}
		}
	}
	return pos
}

// particles converts a wire snapshot to engine particles exactly the way
// the daemon does, for direct-run comparisons.
func particles(snap [][3]float64) []tess.Particle {
	out := make([]tess.Particle, len(snap))
	for i, p := range snap {
		out[i] = tess.Particle{ID: int64(i), Pos: tess.Vec3{X: p[0], Y: p[1], Z: p[2]}}
	}
	return out
}

// directMeshes runs the same job spec through a direct single-client
// tess.Open/Step/Close session — no daemon, no HTTP — and returns each
// step's merged canonical mesh encoding. This is the byte-identity oracle
// the e2e suite compares daemon output against.
func directMeshes(t testing.TB, spec jobd.JobSpec) [][]byte {
	t.Helper()
	opts := []tess.Option{}
	if spec.Ghost > 0 {
		opts = append(opts, tess.WithGhostSize(spec.Ghost))
	}
	if spec.Decomposition == "rcb" {
		opts = append(opts, tess.WithDecomposition(tess.DecomposeRCB))
	}
	cfg := tess.NewPeriodicConfig(spec.L, opts...)
	cfg.MinVolume = spec.MinVolume
	cfg.MaxVolume = spec.MaxVolume
	sess, err := tess.Open(cfg, spec.Blocks)
	if err != nil {
		t.Fatalf("harness: direct open: %v", err)
	}
	defer sess.Close()
	var out [][]byte
	for i, snap := range spec.Snapshots {
		res, err := sess.Step(particles(snap))
		if err != nil {
			t.Fatalf("harness: direct step %d: %v", i+1, err)
		}
		merged, err := tess.MergeCanonical(res.Meshes, cfg.Domain, cfg.Periodic)
		if err != nil {
			t.Fatalf("harness: direct merge %d: %v", i+1, err)
		}
		enc, err := merged.Encode()
		if err != nil {
			t.Fatalf("harness: direct encode %d: %v", i+1, err)
		}
		out = append(out, enc)
	}
	return out
}
