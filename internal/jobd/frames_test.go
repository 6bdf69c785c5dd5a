package jobd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobd"
)

// getEvents GETs a job's events from seq from, with accept as the Accept
// header when it is not empty, and returns the response's Content-Type and
// body.
func getEvents(t *testing.T, h *harness, id string, from int, accept string) (string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, h.BaseURL+"/v1/jobs/"+id+"/events?from="+strconv.Itoa(from), nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events of %s from %d: %d %s", id, from, resp.StatusCode, body)
	}
	return resp.Header.Get("Content-Type"), body
}

// Client.Events reads event frames, and what it yields is what the NDJSON
// stream says, field for field: on a mesh job, a density job with
// include_obs, a job that ends in an error event, and replays from the
// middle of a log and from past its end. The NDJSON body a plain GET gets
// is, byte for byte, json.Encoder's output for those events — the stream
// every earlier daemon sent.
func TestE2EEventsFramingOracle(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	mesh := happySpec(60, 2)
	mesh.IncludeObs = true
	density := happySpec(61, 2)
	density.IncludeObs = true
	density.Density = &jobd.DensitySpec{GridN: 8, Spectrum: true}
	fault := happySpec(62, 3)
	fault.Fault = &jobd.FaultSpec{Seed: 5, CrashRank: 1, CrashStep: 6}

	ids := map[string]string{}
	for _, job := range []struct {
		name string
		spec jobd.JobSpec
	}{{"mesh", mesh}, {"density", density}, {"fault", fault}} {
		st := h.Submit(t, job.spec)
		h.Wait(t, st.ID, e2eWait)
		ids[job.name] = st.ID
	}
	for _, tc := range []struct {
		name, job string
		from      int
		want      int // events in the stream
		last      string
	}{
		{"mesh job", "mesh", 0, 5, "done"},
		{"density job with include_obs", "density", 0, 5, "done"},
		{"fault job", "fault", 0, 4, "error"},
		{"replay from mid-log", "mesh", 3, 2, "done"},
		{"replay past the terminal event", "mesh", 7, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := ids[tc.job]
			var framed []jobd.Event
			if err := h.Client.Events(context.Background(), id, tc.from, func(e jobd.Event) error {
				framed = append(framed, e)
				return nil
			}); err != nil {
				t.Fatalf("Client.Events: %v", err)
			}
			if len(framed) != tc.want || tc.want > 0 && framed[len(framed)-1].Type != tc.last {
				t.Fatalf("framed stream has %d events ending %+v, want %d ending %q", len(framed), framed, tc.want, tc.last)
			}

			ctype, body := getEvents(t, h, id, tc.from, "")
			if ctype != "application/x-ndjson" {
				t.Errorf("plain GET answered %q, want application/x-ndjson", ctype)
			}
			var lines []jobd.Event
			dec := json.NewDecoder(bytes.NewReader(body))
			for dec.More() {
				var e jobd.Event
				if err := dec.Decode(&e); err != nil {
					t.Fatal(err)
				}
				lines = append(lines, e)
			}
			if !reflect.DeepEqual(framed, lines) {
				t.Fatalf("framed events differ from the NDJSON stream's:\nframed %+v\nndjson %+v", framed, lines)
			}
			var enc bytes.Buffer
			for _, e := range framed {
				if err := json.NewEncoder(&enc).Encode(e); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(enc.Bytes(), body) {
				t.Errorf("NDJSON body (%d bytes) is not json.Encoder's output for its events (%d bytes)", len(body), enc.Len())
			}
			var obsKeys [][]string
			for _, e := range framed {
				if e.Type == "step" && (e.MeshB64 == "" || (e.Obs == nil) != (tc.job == "fault") || (e.Density == nil) != (tc.job != "density")) {
					t.Errorf("step %d of the %s job carries other payloads than its spec asked for", e.Step, tc.job)
				}
				if e.Type == "step" && e.Obs != nil {
					obsKeys = append(obsKeys, slices.Sorted(maps.Keys(e.Obs.Counters)))
				}
			}
			// Every step's obs digest carries the same counters, whether or
			// not a density step ran before it.
			if tc.job == "density" && len(obsKeys) != 2 {
				t.Errorf("density job streamed %d obs digests, want 2", len(obsKeys))
			}
			for i := 1; i < len(obsKeys); i++ {
				if !reflect.DeepEqual(obsKeys[i], obsKeys[0]) {
					t.Errorf("%s job: step %d obs digest counters %v, step 1's %v", tc.job, i+1, obsKeys[i], obsKeys[0])
				}
			}

			ctype, raw := getEvents(t, h, id, tc.from, "application/x-tess-events")
			if ctype != "application/x-tess-events" {
				t.Errorf("framed GET answered %q", ctype)
			}
			if len(raw) >= len(body) && tc.job != "fault" && tc.want > 0 {
				t.Errorf("framed stream is %d bytes, the NDJSON one %d", len(raw), len(body))
			}
		})
	}
}

// A framed stream that stops before its end frame is an error wrapping
// io.ErrUnexpectedEOF, whether it stops between frames or inside one; an
// NDJSON stream cut short cannot be told from a finished one, so Events
// returns nil for it.
func TestEventsCutStream(t *testing.T) {
	h := startDaemon(t, jobd.Config{})
	st := h.Submit(t, happySpec(63, 2))
	h.Wait(t, st.ID, e2eWait)
	_, frames := getEvents(t, h, st.ID, 0, "application/x-tess-events")
	_, ndjson := getEvents(t, h, st.ID, 0, "")

	serve := func(ctype string, body []byte) *jobd.Client {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", ctype)
			w.Write(body)
		}))
		t.Cleanup(srv.Close)
		return &jobd.Client{Base: srv.URL}
	}
	count := func(c *jobd.Client) (int, error) {
		n := 0
		err := c.Events(context.Background(), st.ID, 0, func(jobd.Event) error { n++; return nil })
		return n, err
	}
	if n, err := count(serve("application/x-tess-events", frames)); err != nil || n != 5 {
		t.Fatalf("whole stream: %d events, %v; want 5, nil", n, err)
	}
	for name, body := range map[string][]byte{
		"no end frame":     frames[:len(frames)-4],
		"cut inside frame": frames[:len(frames)/2],
	} {
		if n, err := count(serve("application/x-tess-events", body)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: %d events, err = %v; want an error wrapping io.ErrUnexpectedEOF", name, n, err)
		}
	}
	// An NDJSON body, whole or cut, is not read at all: the client cannot
	// tell a cut NDJSON stream from a finished one.
	cut := bytes.SplitAfter(ndjson, []byte("\n"))
	if n, err := count(serve("application/x-ndjson", bytes.Join(cut[:3], nil))); err == nil ||
		!strings.Contains(err.Error(), `"application/x-ndjson"`) || n != 0 {
		t.Errorf("NDJSON cut after 3 lines: %d events, %v; want 0 and an error naming application/x-ndjson", n, err)
	}
}
