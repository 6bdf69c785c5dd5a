// Command stackbench is the one benchmark of the whole stack: four named
// workloads, the end-to-end metrics a user of the library or the daemon
// would see, and — from a separate traced run — a per-layer table. See
// README.md in this directory for the tables and the reasoning; spec.go is
// the machine-readable form.
//
// The driver's contract (BENCHMARK.json) runs it as
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which runs one workload in this process and prints its result as the
// last line of standard output. Without -workload it runs every workload,
// each in a process of its own so peak_rss_mb belongs to that workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// outDir receives the traces and the runs' scratch files (-outdir).
var outDir = filepath.Join("bench", "out")

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: all, one process each)")
		seed         = flag.Int64("seed", 1, "seed of the input generators (N-body initial conditions, halo mock, tenant jitter)")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics (after the untraced run when all workloads run)")
		tiny         = flag.Bool("tiny", false, "8^3 particles, two ops: the smoke-test size bench_test.go uses")
		outPath      = flag.String("out", "", "append the run's record as one JSON line to this file")
		runs         = flag.Int("runs", 1, "repeat the whole set this many times, seed+i each (all-workloads mode; per side for -selfcheck)")
		compare      = flag.Bool("compare", false, "compare two record files: stackbench -compare old.json new.json")
		selfcheck    = flag.Bool("selfcheck", false, "A/A: run the set twice per round in alternating order, fail if an end-to-end metric differs by more than its bound")
		printSpec    = flag.Bool("manifest", false, "print BENCHMARK.json as generated from spec.go")
	)
	flag.StringVar(&outDir, "outdir", outDir, "directory for traces and scratch files")
	flag.Parse()

	switch {
	case *printSpec:
		raw, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(raw)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: stackbench -compare old.json new.json"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if err := runSelfcheck(childArgs{seed: *seed, seconds: *seconds, tiny: *tiny, trace: *trace == 1}, max(*runs, 1)); err != nil {
			fatal(err)
		}
	case *workloadName != "":
		def := findWorkload(*workloadName)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		p := params{
			Seed: *seed, Tiny: *tiny, Traced: *trace == 1,
			Dir: filepath.Join(outDir, fmt.Sprintf("%s-%d", def.Name, os.Getpid())),
		}
		res, err := runWorkload(def, p, *seconds)
		if err != nil {
			fatal(err)
		}
		printResult(def.Name, res)
		if *outPath != "" {
			rec := newRecord(*seed)
			rec.Workloads[def.Name] = res
			if err := appendRecord(*outPath, rec); err != nil {
				fatal(err)
			}
		}
		// The driver's line: exactly these four keys, last on stdout.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, driverMetrics(res.Metrics)})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		failed := false
		for r := 0; r < max(*runs, 1); r++ {
			rec, err := runAll(childArgs{seed: *seed + int64(r), seconds: *seconds, tiny: *tiny, trace: *trace == 1})
			if err != nil {
				fatal(err)
			}
			for _, res := range rec.Workloads {
				failed = failed || !res.Correct
			}
			if *outPath != "" {
				if err := appendRecord(*outPath, rec); err != nil {
					fatal(err)
				}
			}
		}
		if failed {
			fatal(fmt.Errorf("at least one workload reported failures"))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stackbench:", err)
	os.Exit(1)
}

// driverMetrics strips the sample counts: the driver's line carries value
// and unit only.
func driverMetrics(ms map[string]metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for name, m := range ms {
		out[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// printResult prints every metric by name with its unit, in table order,
// then the failure count and the run's provenance.
func printResult(workload string, res *result) {
	rec := newRecord(0)
	fmt.Printf("workload %s  commit %s  %s  nproc %d  GOMAXPROCS %d\n", workload, rec.Commit, rec.Go, rec.NProc, rec.GOMAXPROCS)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Printf("  %-34s %16.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
			}
		}
	}
	for _, d := range extras {
		if m, ok := res.Extras[d.Name]; ok {
			fmt.Printf("  %-34s %16.6g %-6s n=%d (not gated)\n", d.Name, m.Value, m.Unit, m.N)
		}
	}
	fmt.Printf("  failed %d of %d\n", res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Println("  FAILED:", e)
	}
}

// record is one run of the benchmark: provenance plus every workload's
// result, the unit -out appends and -compare reads.
type record struct {
	Commit     string             `json:"commit"`
	Go         string             `json:"go"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"GOMAXPROCS"`
	Seed       int64              `json:"seed"`
	Workloads  map[string]*result `json:"workloads"`
}

func newRecord(seed int64) *record {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	return &record{
		Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Workloads: map[string]*result{},
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// childArgs is what a per-workload child process is started with.
type childArgs struct {
	seed    int64
	seconds float64
	tiny    bool
	trace   bool
}

// runChild runs one workload in a process of its own, passing its output
// through, and reads the result back from the record the child appends to a
// scratch file (the driver's stdout line carries no sample counts).
func runChild(workload string, a childArgs, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("record-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(a.seed, 10),
		"-seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64), "-trace", t,
		"-tiny="+strconv.FormatBool(a.tiny), "-outdir", outDir, "-out", tmp)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	recs, err := readRecords(tmp)
	if err != nil {
		return nil, err
	}
	res := recs[len(recs)-1].Workloads[workload]
	if res == nil {
		return nil, fmt.Errorf("%s: child wrote no result", workload)
	}
	return res, nil
}

// runAll runs every workload once (and once more traced when asked) and
// merges the two metric sets into one record.
func runAll(a childArgs) (*record, error) {
	rec := newRecord(a.seed)
	for _, def := range workloads {
		res, err := runChild(def.Name, a, false)
		if err != nil {
			return nil, err
		}
		if a.trace {
			traced, err := runChild(def.Name, a, true)
			if err != nil {
				return nil, err
			}
			// bench.trace_overhead_frac comes from the traced process's own
			// interleaved ops; end-to-end numbers only from the untraced one.
			for name, m := range traced.Metrics {
				res.Metrics[name] = m
			}
			res.Attempted += traced.Attempted
			res.Failed += traced.Failed
			res.Correct = res.Correct && traced.Correct
			res.Errors = append(res.Errors, traced.Errors...)
		}
		rec.Workloads[def.Name] = res
	}
	return rec, nil
}
