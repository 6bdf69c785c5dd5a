package jobd

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	tess "repro"
)

// FuzzJobSpec sends arbitrary bytes down the path of a POST /v1/jobs body:
// the handler's strict decoder, then Validate under small limits. Neither
// may panic, every rejection wraps ErrBadSpec (so it is answered 400), and
// a spec Validate admits is one a worker can open a session for — nothing
// admission lets through fails later for a reason the spec alone decides.
func FuzzJobSpec(f *testing.F) {
	add := func(mutate func(*JobSpec)) {
		spec := validInline()
		mutate(&spec)
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The accepted and rejected shapes of TestSpecValidate.
	add(func(s *JobSpec) {})
	add(func(s *JobSpec) { s.Decomposition = "rcb" })
	add(func(s *JobSpec) { s.Snapshots, s.L, s.Sim = nil, 0, &SimSpec{NG: 8, Steps: 2} })
	add(func(s *JobSpec) { s.Fault = &FaultSpec{CrashRank: 1, CrashStep: 1} })
	add(func(s *JobSpec) { s.Density = &DensitySpec{GridN: 8, Spectrum: true, Percentiles: []float64{50}} })
	add(func(s *JobSpec) { s.L, s.Blocks, s.Snapshots[0][2] = 6, 8, [3]float64{5, 5, 5} }) // ghost 4, blocks 3 wide
	add(func(s *JobSpec) { s.L, s.Decomposition, s.Snapshots[0][2] = 6, "rcb", [3]float64{5, 5, 5} })
	add(func(s *JobSpec) { s.Ghost = 4.5 })
	add(func(s *JobSpec) { s.Blocks = 0 })
	add(func(s *JobSpec) { s.Blocks = 7 })
	add(func(s *JobSpec) { s.Snapshots[0][1] = [3]float64{4, 8, 4} })
	add(func(s *JobSpec) { s.Decomposition = "hilbert" })
	add(func(s *JobSpec) { s.Snapshots, s.SnapshotURI = nil, "/no/such/snapshot" })
	f.Add([]byte(`{"l":6,"blocks":8,"snapshots":[[[1,1,1]]]}`))
	f.Add([]byte(`{"l":8,"blocks":2,"ghosts":3,"snapshots":[[[1,1,1]]]}`)) // unknown field
	f.Add([]byte(`{"l":1e400,"blocks":2}`))
	f.Add([]byte(`{"l":8,"blocks":2,"snapshots":[[[1,1]]]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	limits := Limits{MaxBlocks: 8, MaxSteps: 2, MaxParticles: 64, MaxGridN: 8}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err == nil {
			err = spec.Validate(limits)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("rejection %v does not wrap ErrBadSpec", err)
			}
			return
		}
		sess, err := tess.Open(spec.config(0), spec.Blocks)
		if err != nil {
			t.Fatalf("Validate admitted %s, tess.Open refuses it: %v", data, err)
		}
		sess.Close()
	})
}

// FuzzEventFrames feeds arbitrary bytes to the event-frame decoder that
// Client.Events reads a framed stream with. It must not panic; it returns
// an error, or events that the daemon's frame writer turns back into the
// same bytes. The seeds are a stream recorded from a daemon — a mesh job
// with include_obs, then a job ending in an error event — and truncations
// of it.
func FuzzEventFrames(f *testing.F) {
	d := New(Config{})
	defer d.Close()
	snap := make([][3]float64, 0, 27) // a jittered 3^3 lattice, to keep the seeds small
	for i := range 27 {
		snap = append(snap, [3]float64{
			float64(i%3)*2.7 + 0.5 + 0.1*float64(i%2), float64(i/3%3)*2.7 + 0.7, float64(i/9)*2.7 + 0.6 + 0.05*float64(i%5),
		})
	}
	mesh := JobSpec{L: 8, Blocks: 2, Ghost: 3, Snapshots: [][][3]float64{snap, snap}, IncludeMesh: true, IncludeObs: true}
	crash := mesh
	crash.Fault = &FaultSpec{Seed: 1, CrashRank: 1, CrashStep: 6} // in step 2
	var stream []byte
	for i, spec := range []JobSpec{mesh, crash} {
		j, err := d.Submit(spec)
		if err != nil {
			f.Fatal(err)
		}
		for {
			_, closed, changed := j.log.since(0)
			if closed {
				break
			}
			<-changed
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID()+"/events", nil)
		req.Header.Set("Accept", framesType)
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		var last Event
		meshes := 0
		if err := readFrames(bytes.NewReader(body), func(e Event) error {
			if e.MeshB64 != "" {
				meshes++
			}
			last = e
			return nil
		}); err != nil || last.Type != []string{"done", "error"}[i] || meshes != 2-i {
			f.Fatalf("recorded stream of %s: %d meshes, ends %q, err %v", j.ID(), meshes, last.Type, err)
		}
		stream = append(stream[:len(stream):len(stream)], body[:len(body)-4]...) // the streams, one end frame
	}
	stream = append(stream, 0, 0, 0, 0)
	f.Add(stream)
	for _, n := range []int{0, 3, 4, 40, len(stream) / 3, len(stream) / 2, len(stream) - 5, len(stream) - 4, len(stream) - 1} {
		f.Add(stream[:n])
	}
	f.Add(append(stream[:len(stream):len(stream)], 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var evs []Event
		err := readFrames(bytes.NewReader(data), func(e Event) error {
			evs = append(evs, e)
			return nil
		})
		if err != nil {
			if !errors.Is(err, errFrames) {
				t.Fatalf("decoder error %v does not wrap errFrames", err)
			}
			return
		}
		var again bytes.Buffer
		fw := newFrameWriter(&again)
		for _, e := range evs {
			raw, err := base64.StdEncoding.DecodeString(e.MeshB64)
			if err != nil {
				t.Fatalf("event %d: mesh_b64 is not base64: %v", e.Seq, err)
			}
			e.MeshB64, e.mesh = "", raw
			if err := fw.event(&e); err != nil {
				t.Fatalf("re-encode event %d: %v", e.Seq, err)
			}
		}
		fw.end()
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("%d decoded events re-encode to %d bytes, not the %d decoded", len(evs), again.Len(), len(data))
		}
	})
}
