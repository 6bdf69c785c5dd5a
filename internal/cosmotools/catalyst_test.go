package cosmotools

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nbody"
)

func get(t *testing.T, srv *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", path, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func TestStatusEndpoint(t *testing.T) {
	s := NewServer()
	s.SetStatus(Status{Step: 42, TotalSteps: 100, Running: true, Particles: 512})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var st Status
	get(t, srv, "/status", &st)
	if st.Step != 42 || st.TotalSteps != 100 || !st.Running || st.Particles != 512 {
		t.Errorf("status = %+v", st)
	}
}

func TestResultsEndpoints(t *testing.T) {
	s := NewServer()
	s.Publish(Result{Analysis: "tess", Step: 5, Summary: "a",
		Metrics: map[string]float64{"cells": 512}, Elapsed: 3 * time.Millisecond})
	s.Publish(Result{Analysis: "halo", Step: 5, Summary: "b"})
	s.Publish(Result{Analysis: "tess", Step: 10, Summary: "c"})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var all []map[string]any
	get(t, srv, "/results", &all)
	if len(all) != 3 {
		t.Fatalf("results = %d", len(all))
	}
	if all[0]["analysis"] != "tess" || all[0]["summary"] != "a" {
		t.Errorf("first result: %v", all[0])
	}
	if all[0]["elapsed_ms"].(float64) <= 0 {
		t.Errorf("elapsed not serialized: %v", all[0])
	}

	var latest []map[string]any
	get(t, srv, "/results/latest", &latest)
	if len(latest) != 2 {
		t.Fatalf("latest = %d entries", len(latest))
	}
	// Sorted by analysis name: halo, tess; tess entry is the step-10 one.
	if latest[0]["analysis"] != "halo" || latest[1]["summary"] != "c" {
		t.Errorf("latest: %v", latest)
	}

	var names []string
	get(t, srv, "/analyses", &names)
	if strings.Join(names, ",") != "halo,tess" {
		t.Errorf("analyses = %v", names)
	}
}

func TestEmptyServer(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	var all []map[string]any
	get(t, srv, "/results", &all)
	if len(all) != 0 {
		t.Errorf("empty server returned %d results", len(all))
	}
	var names []string
	get(t, srv, "/analyses", &names)
	if len(names) != 0 {
		t.Errorf("empty server returned analyses %v", names)
	}
}

func TestConcurrentPublishAndRead(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Publish(Result{Analysis: "tess", Step: i})
			s.SetStatus(Status{Step: i})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			resp, err := http.Get(srv.URL + "/results/latest")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
}

func TestAttachPublishesDuringRun(t *testing.T) {
	simCfg := nbody.DefaultConfig(8)
	cfg, err := ParseConfig(strings.NewReader("[halo]\nevery = 2\nmin_members = 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(cfg, simCfg, "")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	sim, err := nbody.New(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(4, s.Attach(p, 4))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var st Status
	get(t, srv, "/status", &st)
	if st.Step != 4 || st.Running {
		t.Errorf("final status = %+v", st)
	}
	var all []map[string]any
	get(t, srv, "/results", &all)
	if len(all) != 2 { // steps 2 and 4
		t.Errorf("published %d results, want 2", len(all))
	}
}
