package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// params is what a workload is built from. Seed feeds the input generators
// only (the N-body initial conditions, the halo mock, the tenants' lattice
// jitter); the code under test never sees it.
type params struct {
	Seed int64
	// Tiny shrinks every workload to 8^3 particles for bench_test.go.
	Tiny bool
	// Traced makes every odd-numbered op a traced one: its public calls are
	// wrapped in spans and it runs against a session carrying a
	// tess.Recorder. Even-numbered ops stay untraced, so one process
	// measures both sides of bench.trace_overhead_frac on interleaved ops.
	Traced bool
	// Dir is a scratch directory of this run (snapshot, tess output,
	// checkpoint); the harness creates and removes it.
	Dir string
	tr  *tracer
}

// tracerFor returns the tracer op i records into: the run's tracer for the
// odd ops of a traced run, nil (the untraced op) otherwise.
func (p params) tracerFor(i int) *tracer {
	if p.Traced && i%2 == 1 {
		return p.tr
	}
	return nil
}

// workload is one named workload. The harness drives it:
//
//	Setup (timed as setup_s, several times over) -> closed-loop Ops for the
//	measured window, each followed by an untimed Verify -> Check (oracles
//	that need extra work) -> Layers (traced runs only) -> Close.
type workload interface {
	// Setup generates the inputs from the seed, opens whatever the ops run
	// against, runs the first op and the warm-up ops, and returns the first
	// op's duration. In a traced run it readies both variants.
	Setup() (firstOp time.Duration, err error)
	// Drivers is the number of closed-loop goroutines issuing ops.
	Drivers() int
	// Op runs the i-th op of driver d and returns the sites it tessellated.
	// It is the timed unit.
	Op(d, i int) (cells int64, err error)
	// Verify checks the op that just completed against the cheap oracles,
	// outside the op's timing.
	Verify(d, i int) error
	// Check runs the oracles that need work of their own (a cold reference
	// run, a direct session) after the window, and returns one error per
	// mismatch.
	Check() []error
	// OutBytesPerCell is the size of the product the workload hands its
	// user per kept cell; valid after Check.
	OutBytesPerCell() float64
	// Layers fills the per-layer metrics of a traced run: span medians,
	// recorder phases, and the single-threaded layer replay.
	Layers(set func(name string, v float64, n int)) error
	// Close releases sessions, daemons and listeners and waits for them.
	Close()
}

// sizing of a run: how often set-up is repeated and the fewest ops a
// window may hold.
const (
	setupRepeats = 3
	minOps       = 4
)

// metric is one reported value; N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload's run, in the shape of the driver's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extras are the untraced run's ungated metrics (see extras in spec.go);
	// the driver's line omits them.
	Extras map[string]metric `json:"extras,omitempty"`
	// Errors lists what failed (op errors and oracle mismatches), for the
	// human reader; the driver's line omits it.
	Errors []string `json:"errors,omitempty"`
}

type opSample struct {
	dur    time.Duration
	cells  int64
	traced bool
	// mallocs and allocBytes are the process's allocation deltas across the
	// op; only meaningful with a single driver.
	mallocs, allocBytes uint64
}

// runWorkload runs one workload in this process and returns its metrics:
// the end-to-end set when p.Traced is false, the per-layer set otherwise.
func runWorkload(def *workloadDef, p params, seconds float64) (*result, error) {
	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.Dir)
	if p.Traced {
		p.tr = newTracer()
	}
	repeats := setupRepeats
	opsFloor := minOps
	if p.Tiny || p.Traced {
		repeats = 1 // setup_s is an end-to-end metric; one set-up is enough elsewhere
	}
	if p.Tiny {
		opsFloor = 2
	}

	// Set-up, repeated so setup_s and first_op_s are medians. Only the last
	// instance is kept for the window; the earlier ones are collected and
	// their memory returned before the next starts, so peak_rss_mb is one
	// instance's, not the repeats' garbage.
	var w workload
	var setups, firsts []time.Duration
	for k := 0; k < repeats; k++ {
		if w != nil {
			w.Close()
			w = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		w = def.New(p)
		first, err := w.Setup()
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		setups = append(setups, time.Since(t0))
		firsts = append(firsts, first)
	}
	defer w.Close()

	res := &result{Metrics: map[string]metric{}}
	fail := func(err error) {
		res.Failed++
		if len(res.Errors) < 20 {
			res.Errors = append(res.Errors, err.Error())
		}
	}

	// The measured window: every driver issues its next op only after the
	// previous one completed (closed loop) until the window has elapsed.
	drivers := w.Drivers()
	window := time.Duration(seconds * float64(time.Second))
	var mu sync.Mutex
	var samples []opSample
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var before, after runtime.MemStats
			for i := 0; i < opsFloor || time.Since(start) < window; i++ {
				if drivers == 1 {
					runtime.ReadMemStats(&before)
				}
				t0 := time.Now()
				cells, err := w.Op(d, i)
				s := opSample{dur: time.Since(t0), cells: cells, traced: p.tracerFor(i) != nil}
				if drivers == 1 {
					runtime.ReadMemStats(&after)
					s.mallocs, s.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
				}
				if err == nil {
					err = w.Verify(d, i)
				}
				mu.Lock()
				res.Attempted++
				if err != nil {
					fail(fmt.Errorf("driver %d op %d: %w", d, i, err))
				} else {
					samples = append(samples, s)
				}
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded: %v", def.Name, res.Errors)
	}

	for _, err := range w.Check() {
		res.Attempted++
		fail(fmt.Errorf("oracle: %w", err))
	}

	if p.Traced {
		set := func(name string, v float64, n int) {
			d := findMetric(perLayer, name)
			if d == nil {
				panic("bench: unknown per-layer metric " + name)
			}
			res.Metrics[name] = metric{Value: v, Unit: d.Unit, N: n}
		}
		for _, d := range perLayer {
			set(d.Name, 0, 0)
		}
		if err := w.Layers(set); err != nil {
			res.Attempted++
			fail(fmt.Errorf("layers: %w", err))
		}
		var on, off []time.Duration
		for _, s := range samples {
			if s.traced {
				on = append(on, s.dur)
			} else {
				off = append(off, s.dur)
			}
		}
		set("bench.first_op_s", median(firsts).Seconds(), len(firsts))
		set("bench.op_s_p90", percentile(off, 0.90).Seconds(), len(off))
		set("bench.trace_overhead_frac", median(on).Seconds()/median(off).Seconds()-1, len(on))
		if err := p.tr.writeFile(tracePath(def.Name)); err != nil {
			return nil, err
		}
	} else {
		n := len(samples)
		durs := make([]time.Duration, n)
		mallocs, allocMB := make([]float64, n), make([]float64, n)
		var cells int64
		var busy time.Duration
		for i, s := range samples {
			durs[i] = s.dur
			cells += s.cells
			busy += s.dur
			mallocs[i], allocMB[i] = float64(s.mallocs), float64(s.allocBytes)/1e6
		}
		// One driver: the measured wall is the ops themselves (the untimed
		// Verify between ops does not dilute the throughput) and the
		// allocation metrics are medians over the ops, which a buffer that
		// happens to grow inside the window does not move. Several drivers:
		// ops overlap, so both come from the window as a whole.
		allocs, mb := median(mallocs), median(allocMB)
		if drivers == 1 {
			wall = busy
		} else {
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
			mb = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(n)
		}
		set := func(name string, v float64, n int) {
			res.Metrics[name] = metric{Value: v, Unit: findMetric(endToEnd, name).Unit, N: n}
		}
		set("setup_s", median(setups).Seconds(), len(setups))
		set("op_s_p50", median(durs).Seconds(), n)
		set("cells_per_s", float64(cells)/wall.Seconds(), n)
		set("jobs_per_s", float64(n)/wall.Seconds(), n)
		set("allocs_per_op", allocs, n)
		set("alloc_mb_per_op", mb, n)
		set("peak_rss_mb", rss, 1)
		set("out_bytes_per_cell", w.OutBytesPerCell(), 1)
		res.Extras = map[string]metric{
			"first_op_s":  {Value: median(firsts).Seconds(), Unit: "s", N: len(firsts)},
			"op_s_p90":    {Value: percentile(durs, 0.90).Seconds(), Unit: "s", N: n},
			"failed_frac": {Value: float64(res.Failed) / float64(res.Attempted), Unit: "frac", N: res.Attempted},
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// percentile returns the q-quantile (nearest rank on the sorted samples).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.5) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// median averages the two middle samples of an even count, so a median of
// few samples does not jump between neighbours.
func median[T ~int64 | ~float64](vs []T) T {
	if len(vs) == 0 {
		return 0
	}
	s := append([]T(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB reads the process's resident-set high-water mark (Linux).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := vmHWM.FindSubmatch(raw)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64) // the regexp admits digits only
	return kb / 1024
}

// pingPong maps an op counter onto snapshot indices 0..n-1..0.., so that
// consecutive ops are always one simulation step apart.
func pingPong(i, n int) int {
	if n < 2 {
		return 0
	}
	period := 2 * (n - 1)
	j := i % period
	if j >= n {
		j = period - j
	}
	return j
}
