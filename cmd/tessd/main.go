// Command tessd is the multi-tenant tessellation daemon: a long-running
// HTTP service that accepts JSON job specs, queues them with admission
// control (429 + Retry-After when compute is saturated), and multiplexes
// many concurrent tessellation sessions over the process's one worker
// budget: GOMAXPROCS, set with the GOMAXPROCS environment variable.
// One tenant's crash — injected or genuine — surfaces as a structured
// error event on that job's stream and never disturbs sibling jobs.
//
// Usage:
//
//	tessd [-addr 127.0.0.1:8437] [-queue 16] [-active 2] [-stall 30s]
//	      [-max-blocks 64] [-max-steps 1024]
//	      [-max-particles 1000000] [-max-grid 128]
//	      [-retain-bytes 67108864] [-debug-addr 127.0.0.1:6060]
//
// Finished jobs keep their event logs and density grids until their total
// exceeds -retain-bytes; then the oldest are evicted (their status stays,
// their streams answer 410 Gone), so memory does not grow with uptime.
// A job's snapshot_uri and checkpoint_dir are relative paths resolved
// under tessd's working directory, which they cannot leave. A non-empty
// -debug-addr serves net/http/pprof on a listener of its own (off by
// default); the API address never serves it.
//
// Submit and watch jobs with the tessctl client (cmd/tessctl), or plain
// curl:
//
//	curl -s localhost:8437/v1/jobs -d '{"l":8,"blocks":2,"sim":{"ng":8,"steps":3},"include_mesh":true}'
//	curl -N localhost:8437/v1/jobs/j0001/events
//
// The events stream is NDJSON, each step's mesh in base64; a client that
// sends Accept: application/x-tess-events gets length-prefixed frames
// with the raw mesh bytes instead, as tessctl does.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobd"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		log.Fatal(err)
	}
}

// run is tessd: it parses args, serves the API (and, with -debug-addr, the
// profiler) until ctx is done, then drains. listening, when non-nil, gets
// the bound addresses once both listeners accept connections (debug is
// nil when the profiler is off).
func run(ctx context.Context, args []string, stderr io.Writer, listening func(api, debug net.Addr)) error {
	fs := flag.NewFlagSet("tessd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8437", "listen address (the default is loopback only; the API has no authentication)")
	queue := fs.Int("queue", 16, "admission queue capacity (jobs waiting to start)")
	active := fs.Int("active", 2, "max concurrently running jobs (scheduler workers)")
	stall := fs.Duration("stall", 30*time.Second, "per-session stall watchdog timeout (negative disables)")
	maxBlocks := fs.Int("max-blocks", 64, "max blocks per job (0 = unlimited)")
	maxSteps := fs.Int("max-steps", 1024, "max steps per job (0 = unlimited)")
	maxParticles := fs.Int("max-particles", 1_000_000, "max particles per snapshot (0 = unlimited)")
	maxGrid := fs.Int("max-grid", 128, "max density sample-grid resolution per axis (0 = unlimited)")
	retain := fs.Int64("retain-bytes", 64<<20, "payload bytes (raw event meshes, density grids, inline snapshots) kept for finished jobs; oldest evicted first")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address, apart from the API (empty: off; it has no authentication either)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(stderr, "", log.LstdFlags)

	d := jobd.New(jobd.Config{
		QueueCapacity: *queue,
		MaxActive:     *active,
		StallTimeout:  *stall,
		RetainBytes:   *retain,
		Limits: jobd.Limits{
			MaxBlocks:    *maxBlocks,
			MaxSteps:     *maxSteps,
			MaxParticles: *maxParticles,
			MaxGridN:     *maxGrid,
		},
	})
	defer d.Close()

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("tessd: listen %s: %w", *addr, err)
	}
	srvs := []*http.Server{{Handler: d.Handler()}}
	liss := []net.Listener{lis}
	var debug net.Addr
	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			lis.Close()
			return fmt.Errorf("tessd: listen %s: %w", *debugAddr, err)
		}
		debug = dl.Addr()
		srvs = append(srvs, &http.Server{Handler: pprofMux()})
		liss = append(liss, dl)
		logger.Printf("tessd: profiler on %s", debug)
	}
	logger.Printf("tessd: serving on %s (queue %d, active %d, budget %d)",
		lis.Addr(), *queue, *active, d.Stats().BudgetTotal)

	errc := make(chan error, len(srvs)) // one send per server, so none blocks
	for i, srv := range srvs {
		go func() { errc <- srv.Serve(liss[i]) }()
	}
	if listening != nil {
		listening(lis.Addr(), debug)
	}
	pending := len(srvs)
	var serveErr error
	select {
	case <-ctx.Done():
		logger.Printf("tessd: stopping — draining")
	case serveErr = <-errc:
		pending--
	}
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	for _, srv := range srvs {
		if serr := srv.Shutdown(sctx); serr != nil {
			fmt.Fprintf(stderr, "tessd: shutdown: %v\n", serr)
		}
	}
	for ; pending > 0; pending-- {
		<-errc // http.ErrServerClosed, now that Shutdown has run
	}
	if serveErr != nil {
		return fmt.Errorf("tessd: serve: %w", serveErr)
	}
	return nil
}

// pprofMux is the profiler's own handler: the index (which also serves
// every named profile, /debug/pprof/heap and the rest) and the four
// endpoints it does not cover.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
