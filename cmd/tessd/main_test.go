package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// With -debug-addr set, tessd serves the profiler index on that listener
// and the API address still answers 404 for the same path; without it,
// nothing but the API listens.
func TestDebugAddrServesPprofApartFromAPI(t *testing.T) {
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	for _, debugOn := range []bool{true, false} {
		args := []string{"-addr", "127.0.0.1:0"}
		if debugOn {
			args = append(args, "-debug-addr", "127.0.0.1:0")
		}
		ctx, cancel := context.WithCancel(context.Background())
		addrs := make(chan [2]net.Addr, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, args, io.Discard, func(api, debug net.Addr) { addrs <- [2]net.Addr{api, debug} })
		}()
		var api, debug net.Addr
		select {
		case a := <-addrs:
			api, debug = a[0], a[1]
		case err := <-done:
			cancel()
			t.Fatalf("tessd exited before listening: %v", err)
		case <-time.After(10 * time.Second):
			cancel()
			t.Fatal("tessd did not start listening")
		}

		if code, body := get("http://" + api.String() + "/v1/stats"); code != http.StatusOK {
			t.Errorf("API /v1/stats: %d %s", code, body)
		}
		if code, _ := get("http://" + api.String() + "/debug/pprof/"); code != http.StatusNotFound {
			t.Errorf("debug %v: API address answers /debug/pprof/ with %d, want 404", debugOn, code)
		}
		if debugOn != (debug != nil) {
			t.Errorf("debug %v: debug listener %v", debugOn, debug)
		}
		if debug != nil {
			code, body := get("http://" + debug.String() + "/debug/pprof/")
			if code != http.StatusOK || !strings.Contains(body, "goroutine") || !strings.Contains(body, "heap") {
				t.Errorf("debug /debug/pprof/: %d %.200q", code, body)
			}
			if code, _ := get("http://" + debug.String() + "/v1/stats"); code != http.StatusNotFound {
				t.Errorf("debug address answers /v1/stats with %d, want 404", code)
			}
		}

		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("debug %v: run returned %v after cancel", debugOn, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("tessd did not drain after cancel")
		}
	}
}

func TestBadDebugAddrFails(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-debug-addr", "not-an-address"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "not-an-address") {
		t.Errorf("bad -debug-addr: %v", err)
	}
}
