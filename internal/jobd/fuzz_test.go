package jobd

import (
	"bytes"
	"encoding/json"
	"errors"
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
