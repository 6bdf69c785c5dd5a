package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tess "repro"
	"repro/internal/jobd"
)

// daemon serves an in-process jobd daemon for the test and returns its
// base URL.
func daemon(t *testing.T) string {
	t.Helper()
	d := jobd.New(jobd.Config{})
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return srv.URL
}

// lattices is steps jittered 6^3 lattices in the periodic 8-cube.
func lattices(seed int64, steps int) [][][3]float64 {
	rng := rand.New(rand.NewSource(seed))
	const n, h = 6, 8.0 / 6
	out := make([][][3]float64, steps)
	for s := range out {
		for i := range n * n * n {
			c := [3]int{i % n, i / n % n, i / (n * n)}
			var p [3]float64
			for k := range p {
				p[k] = (float64(c[k])+0.5)*h + (rng.Float64()-0.5)*0.9*h
			}
			out[s] = append(out[s], p)
		}
	}
	return out
}

// tessctl runs the command with stdin and returns its exit status, stdout
// and stderr.
func tessctl(t *testing.T, stdin string, args ...string) (int, []byte, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.Bytes(), stderr.String()
}

// directMeshes is what a direct session makes of the spec's snapshots:
// each step's canonical merge, encoded.
func directMeshes(t *testing.T, spec jobd.JobSpec) [][]byte {
	t.Helper()
	cfg := tess.NewPeriodicConfig(spec.L, tess.WithGhostSize(spec.Ghost))
	sess, err := tess.Open(cfg, spec.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var out [][]byte
	for _, snap := range spec.Snapshots {
		ps := make([]tess.Particle, len(snap))
		for i, p := range snap {
			ps[i] = tess.Particle{ID: int64(i), Pos: tess.Vec3{X: p[0], Y: p[1], Z: p[2]}}
		}
		res, err := sess.Step(ps)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := tess.MergeCanonical(res.Meshes, cfg.Domain, cfg.Periodic)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := merged.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc)
	}
	return out
}

// ndjson is the daemon's NDJSON events body for a job from seq from.
func ndjson(t *testing.T, base, id string, from int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", base, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("NDJSON events of %s: %d, %v", id, resp.StatusCode, err)
	}
	return body
}

// submit -wait -mesh-dir writes each step's mesh as the direct session's
// canonical bytes and prints the events, their meshes replaced by the
// file names; watch prints exactly the daemon's NDJSON body for the job,
// from any sequence number. Together they pin what the CLI prints to the
// NDJSON surface, whatever framing it reads.
func TestSubmitWaitMeshDirAndWatch(t *testing.T) {
	base := daemon(t)
	spec := jobd.JobSpec{L: 8, Blocks: 2, Ghost: 3, Snapshots: lattices(1, 2), IncludeMesh: true, IncludeObs: true}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	code, stdout, stderr := tessctl(t, string(body), "-addr", base, "submit", "-wait", "-mesh-dir", dir)
	if code != 0 {
		t.Fatalf("submit exited %d: %s", code, stderr)
	}
	var events []jobd.Event
	dec := json.NewDecoder(bytes.NewReader(stdout))
	for dec.More() {
		var e jobd.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	if len(events) != 5 || events[len(events)-1].Type != "done" {
		t.Fatalf("submit printed %d events, want queued, started, 2 steps, done:\n%s", len(events), stdout)
	}
	id := events[0].Job
	for step, want := range directMeshes(t, spec) {
		path := filepath.Join(dir, fmt.Sprintf("%s-step%d.mesh", id, step+1))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("step %d: %s (%d bytes) is not the direct session's canonical mesh (%d bytes)", step+1, path, len(got), len(want))
		}
		if e := events[2+step]; e.MeshB64 != "(written to "+path+")" {
			t.Errorf("step %d event prints mesh_b64 %q", step+1, e.MeshB64)
		}
	}

	for _, from := range []int{0, 3, 9} {
		code, stdout, stderr := tessctl(t, "", "-addr", base, "watch", "-from", fmt.Sprint(from), id)
		if code != 0 {
			t.Fatalf("watch -from %d exited %d: %s", from, code, stderr)
		}
		if want := ndjson(t, base, id, from); !bytes.Equal(stdout, want) {
			t.Errorf("watch -from %d printed %d bytes, the daemon's NDJSON body is %d", from, len(stdout), len(want))
		}
	}
}

// A job that fails makes submit -wait exit 2; an API error exits 1.
func TestSubmitExitStatus(t *testing.T) {
	base := daemon(t)
	spec := jobd.JobSpec{L: 8, Blocks: 2, Ghost: 3, Snapshots: lattices(2, 2),
		Fault: &jobd.FaultSpec{Seed: 1, CrashRank: 1, CrashStep: 2}}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code, stdout, stderr := tessctl(t, string(body), "-addr", base, "submit", "-wait"); code != 2 || !bytes.Contains(stdout, []byte(`"type":"error"`)) {
		t.Errorf("failing job: exit %d, stdout %s, stderr %s; want 2 and an error event", code, stdout, stderr)
	}
	if code, _, stderr := tessctl(t, `{"l":8}`, "-addr", base, "submit"); code != 1 || !strings.Contains(stderr, "400") {
		t.Errorf("bad spec: exit %d, stderr %q; want 1 naming the 400", code, stderr)
	}
}
