package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords reads a file of run records, one JSON object per line (what
// -out appends).
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, &rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return recs, nil
}

// series is one workload x metric across the runs of a record file.
type series []float64

func collect(recs []*record, workload, metric string) series {
	var s series
	for _, rec := range recs {
		if res := rec.Workloads[workload]; res != nil {
			if m, ok := res.Metrics[metric]; ok {
				s = append(s, m.Value)
			} else if m, ok := res.Extras[metric]; ok {
				s = append(s, m.Value)
			}
		}
	}
	return s
}

func (s series) median() float64 { return median(s) }

// spread is the distance between the first and third quartile as a share
// of the median (0 with fewer than two runs: unknown, not small).
func (s series) spread() float64 {
	n := len(s)
	med := s.median()
	if n < 2 || med == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	// Quartiles by linear interpolation at (n+1)p, the "exclusive" method
	// of Python's statistics.quantiles(values, n=4).
	q := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		lo := min(max(int(pos), 0), n-1)
		hi := min(lo+1, n-1)
		if pos < 0 {
			return v[0]
		}
		return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
	}
	return (q(0.75) - q(0.25)) / med
}

// worsening is by how much new is worse than old, as a share of old
// (negative: better).
func worsening(d *metricDef, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// verdict applies the metric's bound. A metric whose run-to-run spread
// exceeds its bound cannot resolve a change of that size either way. A gain
// counts only beyond the noise: the observed spread, or the bound when
// single runs give no spread.
func verdict(d *metricDef, old, new series) string {
	spread := max(old.spread(), new.spread())
	w := worsening(d, old.median(), new.median())
	noise := spread
	if len(old) < 2 || len(new) < 2 {
		noise = d.Bound
	}
	switch {
	case spread > d.Bound:
		return "unresolved"
	case w > d.Bound:
		return "regressed"
	case -w > noise && w < 0:
		return "improved"
	}
	return "unchanged"
}

// compareRecords prints one row per workload x end-to-end metric, then the
// per-layer rows as advisory, and reports whether any metric regressed.
func compareRecords(out io.Writer, old, new []*record) (regressed bool) {
	fmt.Fprintf(out, "old: %d run(s) at %s   new: %d run(s) at %s\n", len(old), old[0].Commit, len(new), new[0].Commit)
	fmt.Fprintf(out, "%-20s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	for _, w := range workloads {
		for i := range endToEnd {
			d := &endToEnd[i]
			o, n := collect(old, w.Name, d.Name), collect(new, w.Name, d.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(d, o, n)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(out, "%-20s %-22s %14.6g %14.6g %9.4f %7.1f%% %6.0f%%  %s\n",
				w.Name, d.Name, o.median(), n.median(), ratio(n.median(), o.median()),
				100*max(o.spread(), n.spread()), 100*d.Bound, v)
		}
		for _, side := range []struct {
			name string
			recs []*record
		}{{"old", old}, {"new", new}} {
			attempted, failed := 0, 0
			for _, rec := range side.recs {
				if res := rec.Workloads[w.Name]; res != nil {
					attempted, failed = attempted+res.Attempted, failed+res.Failed
				}
			}
			if failed > 0 {
				regressed = regressed || side.name == "new"
				fmt.Fprintf(out, "%-20s %-22s %s: %d of %d ops failed\n", w.Name, "failed_frac", side.name, failed, attempted)
			}
		}
	}
	fmt.Fprintln(out, "\nungated and per-layer (advisory; new/old with its base):")
	advisory := append(append([]metricDef(nil), extras...), perLayer...)
	for _, w := range workloads {
		for i := range advisory {
			d := &advisory[i]
			o, n := collect(old, w.Name, d.Name), collect(new, w.Name, d.Name)
			if len(o) == 0 || len(n) == 0 || (o.median() == 0 && n.median() == 0) {
				continue
			}
			fmt.Fprintf(out, "%-20s %-34s %14.6g %14.6g %9.4f %s\n", w.Name, d.Name, o.median(), n.median(), ratio(n.median(), o.median()), d.Unit)
		}
	}
	return regressed
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func compareFiles(out io.Writer, oldPath, newPath string) error {
	old, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	new, err := readRecords(newPath)
	if err != nil {
		return err
	}
	if compareRecords(out, old, new) {
		return fmt.Errorf("at least one end-to-end metric regressed beyond its bound")
	}
	return nil
}

// runSelfcheck is the A/A test of the benchmark itself: `rounds` rounds,
// each running the whole set once for side A and once for side B on the
// same build, in alternating order. It fails if any end-to-end metric's
// medians differ by more than the metric's own bound, if a metric's spread
// exceeds its bound, or (traced) if an exact per-layer count differs.
func runSelfcheck(a childArgs, rounds int) error {
	var sideA, sideB []*record
	for r := 0; r < rounds; r++ {
		first, second := &sideA, &sideB
		if r%2 == 1 {
			first, second = second, first
		}
		for _, side := range []*[]*record{first, second} {
			rec, err := runAll(a) // same seed on both sides: counts must repeat exactly
			if err != nil {
				return err
			}
			for name, res := range rec.Workloads {
				if !res.Correct {
					return fmt.Errorf("selfcheck: %s reported failures: %v", name, res.Errors)
				}
			}
			*side = append(*side, rec)
		}
	}
	fmt.Println()
	compareRecords(os.Stdout, sideA, sideB)
	var bad []string
	for _, w := range workloads {
		for i := range endToEnd {
			d := &endToEnd[i]
			o, n := collect(sideA, w.Name, d.Name), collect(sideB, w.Name, d.Name)
			if v := verdict(d, o, n); v == "regressed" || v == "unresolved" ||
				-worsening(d, o.median(), n.median()) > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: A %.6g, B %.6g (bound %.0f%%)", w.Name, d.Name, o.median(), n.median(), 100*d.Bound))
			}
		}
		if !a.trace {
			continue
		}
		for _, name := range exactCounts {
			all := append(collect(sideA, w.Name, name), collect(sideB, w.Name, name)...)
			for _, v := range all {
				if v != all[0] {
					bad = append(bad, fmt.Sprintf("%s %s: count does not repeat exactly (%v)", w.Name, name, all))
					break
				}
			}
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Println("SELFCHECK FAILED:", b)
		}
		return fmt.Errorf("selfcheck: %d metric(s) differ between two sets of runs of the same build", len(bad))
	}
	fmt.Println("selfcheck passed: every end-to-end metric agrees within its bound")
	return nil
}
