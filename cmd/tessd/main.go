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
//	tessd [-addr :8437] [-queue 16] [-active 2] [-stall 30s]
//	      [-max-blocks 64] [-max-steps 1024]
//	      [-max-particles 1000000] [-max-grid 128]
//	      [-retain-bytes 67108864]
//
// Finished jobs keep their event logs and density grids until their total
// exceeds -retain-bytes; then the oldest are evicted (their status stays,
// their streams answer 410 Gone), so memory does not grow with uptime.
//
// Submit and watch jobs with the tessctl client (cmd/tessctl), or plain
// curl:
//
//	curl -s localhost:8437/v1/jobs -d '{"l":8,"blocks":2,"sim":{"ng":8,"steps":3},"include_mesh":true}'
//	curl -N localhost:8437/v1/jobs/j0001/events
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobd"
)

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	queue := flag.Int("queue", 16, "admission queue capacity (jobs waiting to start)")
	active := flag.Int("active", 2, "max concurrently running jobs (scheduler workers)")
	stall := flag.Duration("stall", 30*time.Second, "per-session stall watchdog timeout (negative disables)")
	maxBlocks := flag.Int("max-blocks", 64, "max blocks per job (0 = unlimited)")
	maxSteps := flag.Int("max-steps", 1024, "max steps per job (0 = unlimited)")
	maxParticles := flag.Int("max-particles", 1_000_000, "max particles per snapshot (0 = unlimited)")
	maxGrid := flag.Int("max-grid", 128, "max density sample-grid resolution per axis (0 = unlimited)")
	retain := flag.Int64("retain-bytes", 64<<20, "payload bytes (event meshes, density grids, inline snapshots) kept for finished jobs; oldest evicted first")
	flag.Parse()

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

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tessd: listen %s: %v", *addr, err)
	}
	srv := &http.Server{Handler: d.Handler()}
	log.Printf("tessd: serving on %s (queue %d, active %d, budget %d)",
		lis.Addr(), *queue, *active, d.Stats().BudgetTotal)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("tessd: %v — draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "tessd: shutdown: %v\n", err)
		}
		d.Close()
	}()
	if err := srv.Serve(lis); err != nil && err != http.ErrServerClosed {
		log.Fatalf("tessd: serve: %v", err)
	}
	<-done
}
