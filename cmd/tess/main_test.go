package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// End-to-end acceptance: a 2-rank run with -trace must emit valid Chrome
// trace JSON with exchange/compute/output spans on both rank threads, and
// the per-rank comm byte counters must sum to the same totals an
// independent instrumented run of the identical configuration reduces to.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	meshPath := filepath.Join(dir, "mesh.bin")
	var buf bytes.Buffer
	err := run([]string{
		"-n", "6", "-blocks", "2", "-seed", "9",
		"-o", meshPath, "-trace", tracePath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "comm:") {
		t.Errorf("summary missing comm line:\n%s", buf.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	spans := map[int]map[string]bool{0: {}, 1: {}}
	sentByRank := map[int]float64{}
	recvdByRank := map[int]float64{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Tid != 0 && ev.Tid != 1 {
				t.Errorf("span on unexpected tid %d", ev.Tid)
				continue
			}
			if ev.Dur <= 0 {
				t.Errorf("span %q on tid %d has non-positive duration", ev.Name, ev.Tid)
			}
			spans[ev.Tid][ev.Name] = true
		case "C":
			if ev.Name == "comm-bytes" {
				sentByRank[ev.Tid], _ = ev.Args["sent"].(float64)
				recvdByRank[ev.Tid], _ = ev.Args["recvd"].(float64)
			}
		}
	}
	for tid := 0; tid <= 1; tid++ {
		for _, want := range []string{"exchange", "ghost-merge", "compute", "output"} {
			if !spans[tid][want] {
				t.Errorf("rank %d: no %q span in trace", tid, want)
			}
		}
	}

	// Independent run of the identical configuration: message and byte
	// counts are deterministic, so the trace counters must agree with the
	// reduced totals of the fresh snapshot.
	cfg := tess.NewPeriodicConfig(8)
	cfg.GhostSize = 3
	cfg.OutputPath = filepath.Join(dir, "mesh2.bin")
	cfg.Recorder = tess.NewRecorder(2)
	out, err := tess.Run(cfg, latticeParticles(6, 8, 0.6, 9), 2)
	if err != nil {
		t.Fatal(err)
	}
	var traceSent, traceRecvd int64
	for tid := 0; tid <= 1; tid++ {
		traceSent += int64(sentByRank[tid])
		traceRecvd += int64(recvdByRank[tid])
	}
	if traceSent != out.Obs.TotalSentBytes {
		t.Errorf("trace sent bytes %d, independent run reduced %d", traceSent, out.Obs.TotalSentBytes)
	}
	if traceRecvd != out.Obs.TotalRecvdBytes {
		t.Errorf("trace recvd bytes %d, independent run reduced %d", traceRecvd, out.Obs.TotalRecvdBytes)
	}
	if traceSent == 0 {
		t.Error("trace recorded zero comm bytes")
	}
}

// The canonical merge flag must write a decodable mesh with one cell per
// particle, identical across block counts.
func TestRunCanonicalExport(t *testing.T) {
	dir := t.TempDir()
	var enc [][]byte
	for _, blocks := range []string{"1", "4"} {
		p := filepath.Join(dir, "canon"+blocks+".bin")
		var buf bytes.Buffer
		if err := run([]string{"-n", "5", "-blocks", blocks, "-seed", "3", "-canonical", p}, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		enc = append(enc, data)
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Error("canonical meshes differ between 1-block and 4-block runs")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "0"}, &buf); err == nil {
		t.Error("n=0 accepted")
	}
}
