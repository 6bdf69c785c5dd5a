package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

func traceFixture() *Snapshot {
	r := NewRecorder(2)
	recordAt(r, 0, PhaseExchange, 0, 2*time.Millisecond)
	recordAt(r, 0, PhaseCompute, 2*time.Millisecond, 5*time.Millisecond)
	recordAt(r, 0, PhaseOutput, 7*time.Millisecond, time.Millisecond)
	recordAt(r, 1, PhaseExchange, 0, 3*time.Millisecond)
	recordAt(r, 1, PhaseCompute, 3*time.Millisecond, 4*time.Millisecond)
	recordAt(r, 1, PhaseOutput, 7*time.Millisecond, time.Millisecond)
	r.CountSend(0, 1, 1000)
	r.CountRecv(1, 0, 1000)
	r.Count(0, CounterGhosts, 11)
	r.Count(1, CounterGhosts, 13)
	return r.Snapshot()
}

func TestWriteTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := traceFixture().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}

	// Every rank must carry a complete event for each pipeline phase.
	phases := map[int]map[string]bool{}
	var commBytesSent int64
	var ghostCounters int
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur <= 0 {
				t.Errorf("span %q has non-positive dur %v", e.Name, e.Dur)
			}
			if phases[e.Tid] == nil {
				phases[e.Tid] = map[string]bool{}
			}
			phases[e.Tid][e.Name] = true
		case "C":
			if e.Name == "comm-bytes" {
				commBytesSent += int64(e.Args["sent"].(float64))
			}
			if e.Name == "ghosts-recvd" {
				ghostCounters++
			}
		case "M":
			// metadata
		default:
			t.Errorf("unexpected event type %q", e.Ph)
		}
	}
	for rank := 0; rank < 2; rank++ {
		for _, ph := range []string{"exchange", "compute", "output"} {
			if !phases[rank][ph] {
				t.Errorf("rank %d missing %q span", rank, ph)
			}
		}
	}
	if commBytesSent != 1000 {
		t.Errorf("summed comm-bytes sent counters = %d, want 1000", commBytesSent)
	}
	if ghostCounters != 2 {
		t.Errorf("got %d ghost counter events, want 2", ghostCounters)
	}
}

func TestWriteTraceDeterministic(t *testing.T) {
	s := traceFixture()
	var a, b bytes.Buffer
	if err := s.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("repeated WriteTrace of one snapshot differs")
	}
}

func TestWriteTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := traceFixture().WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	if err := traceFixture().WriteTraceFile(filepath.Join(t.TempDir(), "no", "such", "dir.json")); err == nil {
		t.Error("writing into a missing directory should fail")
	}
}
