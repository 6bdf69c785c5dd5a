// Command pairwins applies the rule a performance claim is judged by to
// the two record files scripts/benchpairs.sh leaves behind:
//
//	go run ./scripts/pairwins base.json head.json [workload metric]
//
// Line i of each file is one run of pair i (bench/run.sh -out appends one
// JSON record per run). For every workload x end-to-end metric of
// BENCHMARK.json — or only the one named — it prints the pairs head won out
// of the pairs run (a tie counts for neither side), both medians, the
// distance between the quartiles of the base's runs, and "claim holds" when
// head won at least nine tenths of the pairs and its median is better than
// the base's by more than that distance. Run from the repository root.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the rule needs: which workloads
// and metrics there are, and which direction is better.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// record is one benchmark run as bench/run.sh -out writes it.
type record struct {
	Seed      int64 `json:"seed"`
	Workloads map[string]struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
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
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// quantile is the p-quantile of sorted v by linear interpolation at
// (n+1)p, the method bench/compare.go's spread uses.
func quantile(v []float64, p float64) float64 {
	n := len(v)
	pos := p*float64(n+1) - 1
	if pos < 0 {
		return v[0]
	}
	lo := min(int(pos), n-1)
	hi := min(lo+1, n-1)
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

// row is the rule applied to one workload x metric.
type row struct {
	pairs, won             int
	baseMedian, headMedian float64
	baseIQR                float64
	holds                  bool
}

// judge pairs base[i] with head[i]; lowerBetter gives the metric's
// direction.
func judge(base, head []float64, lowerBetter bool) row {
	r := row{pairs: len(base)}
	for i := range base {
		b, h := base[i], head[i]
		if !lowerBetter {
			b, h = -b, -h
		}
		if h < b {
			r.won++
		}
	}
	sb := append([]float64(nil), base...)
	sh := append([]float64(nil), head...)
	sort.Float64s(sb)
	sort.Float64s(sh)
	r.baseMedian, r.headMedian = quantile(sb, 0.5), quantile(sh, 0.5)
	r.baseIQR = quantile(sb, 0.75) - quantile(sb, 0.25)
	gain := r.baseMedian - r.headMedian
	if !lowerBetter {
		gain = -gain
	}
	r.holds = r.pairs > 0 && 10*r.won >= 9*r.pairs && gain > r.baseIQR
	return r
}

func run(out io.Writer, args []string) error {
	if len(args) != 2 && len(args) != 4 {
		return fmt.Errorf("usage: pairwins base.json head.json [workload metric]")
	}
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := readRecords(args[0])
	if err != nil {
		return err
	}
	head, err := readRecords(args[1])
	if err != nil {
		return err
	}
	if len(base) != len(head) || len(base) == 0 {
		return fmt.Errorf("%d base runs and %d head runs: the files do not hold pairs", len(base), len(head))
	}
	for i := range base {
		if base[i].Seed != head[i].Seed {
			return fmt.Errorf("pair %d: base ran seed %d, head seed %d", i+1, base[i].Seed, head[i].Seed)
		}
	}
	fmt.Fprintf(out, "%-20s %-20s %7s %14s %14s %14s  %s\n", "workload", "metric", "won", "base median", "head median", "base IQR", "rule")
	rows := 0
	for _, w := range m.Workloads {
		for _, d := range m.EndToEnd {
			if len(args) == 4 && (w.Name != args[2] || d.Name != args[3]) {
				continue
			}
			var bs, hs []float64
			for i := range base {
				b, okb := base[i].Workloads[w.Name].Metrics[d.Name]
				h, okh := head[i].Workloads[w.Name].Metrics[d.Name]
				if okb && okh {
					bs, hs = append(bs, b.Value), append(hs, h.Value)
				}
			}
			if len(bs) == 0 {
				continue
			}
			r := judge(bs, hs, d.Better == "lower")
			verdict := "-"
			if r.holds {
				verdict = "claim holds"
			}
			fmt.Fprintf(out, "%-20s %-20s %4d/%-2d %14.6g %14.6g %14.6g  %s\n",
				w.Name, d.Name, r.won, r.pairs, r.baseMedian, r.headMedian, r.baseIQR, verdict)
			rows++
		}
	}
	if rows == 0 {
		return fmt.Errorf("no runs of the metric asked for in the record files")
	}
	return nil
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pairwins:", err)
		os.Exit(1)
	}
}
