package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the driver-facing subset of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc, raw
}

// BENCHMARK.json is spec.go's tables verbatim, and stays inside the limits
// of the driver's contract.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	doc, raw := loadBenchmarkJSON(t)
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("BENCHMARK.json differs from `stackbench -manifest`; regenerate it from spec.go")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

// Every workload, at 8^3 particles and two ops, passes all of its oracles
// in both the untraced and the traced run — the traced run includes the
// layer replay, which must equal the session bit for bit — and emits
// exactly the metric names BENCHMARK.json lists for that kind of run.
func TestTinyWorkloads(t *testing.T) {
	doc, _ := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(doc.Workloads), len(workloads))
	}
	want := map[bool]map[string]bool{false: {}, true: {}}
	for _, m := range doc.EndToEnd {
		want[false][m.Name] = true
	}
	for _, m := range doc.PerLayer {
		want[true][m.Name] = true
	}
	outDir = t.TempDir()
	for _, w := range doc.Workloads {
		def := findWorkload(w.Name)
		if def == nil {
			t.Errorf("BENCHMARK.json names workload %q, which spec.go lacks", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			p := params{Seed: 1, Tiny: true, Traced: traced, Dir: filepath.Join(outDir, "run-"+w.Name)}
			res, err := runWorkload(def, p, 0)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Errors)
			}
			for name := range res.Metrics {
				if !want[traced][name] {
					t.Errorf("%s traced=%v: emits %q, which BENCHMARK.json does not list", w.Name, traced, name)
				}
			}
			for name := range want[traced] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: BENCHMARK.json lists %q, which the run did not emit", w.Name, traced, name)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
					}
				}
				continue
			}
			raw, err := os.ReadFile(tracePath(w.Name))
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				continue
			}
			var trace struct {
				TraceEvents []struct {
					Name string
					Ph   string
				}
			}
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("%s: trace file is not loadable Chrome trace JSON (%v, %d events)", w.Name, err, len(trace.TraceEvents))
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	d := &metricDef{"op_s_p50", "s", "lower", 0.10}
	steady := func(v float64) series { return series{v * 0.99, v, v * 1.01} }
	for _, tc := range []struct {
		name     string
		old, new series
		want     string
	}{
		{"same", steady(1), steady(1.02), "unchanged"},
		{"slower", steady(1), steady(1.2), "regressed"},
		{"faster", steady(1), steady(0.9), "improved"},
		{"noisy", series{0.8, 1, 1.3}, steady(1.5), "unresolved"},
		{"single runs, small gain", series{1}, series{0.95}, "unchanged"},
	} {
		if got := verdict(d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	up := &metricDef{"cells_per_s", "1/s", "higher", 0.10}
	if got := verdict(up, steady(100), steady(80)); got != "regressed" {
		t.Errorf("higher-is-better drop: verdict %q, want regressed", got)
	}
}

func TestPingPong(t *testing.T) {
	var got []int
	for i := 0; i < 9; i++ {
		got = append(got, pingPong(i, 4))
	}
	want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pingPong walk %v, want %v", got, want)
		}
	}
}
