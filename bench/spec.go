package main

import (
	"encoding/json"
	"runtime"
)

// This file is the single source of truth for what the benchmark reports:
// the workload names, the end-to-end metrics with their regression bounds,
// and the per-layer metrics of the traced run. BENCHMARK.json at the repo
// root is `stackbench -manifest` verbatim; bench_test.go fails on drift in
// either direction.

// metricDef names one reported metric. Bound (end-to-end metrics only) is
// the share of the baseline median by which the metric may worsen before a
// change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the metrics a user of the stack would see. Every workload
// reports every one of them, from the untraced run only, and none is ever 0
// (the driver's contract for both). The wall-time bounds are at the
// contract's cap because this class of host is that unsteady: on the shared
// 2-core sandbox the same build's op_s_p50 had a run-to-run spread of 2% in
// one ten-run batch and 15-26% in another an hour later (README,
// "Steadiness"). They gate breakage; gains are claimed from paired,
// alternating runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s_p50", "s", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"out_bytes_per_cell", "B", "lower", 0.02},
}

// extras are printed and recorded by the untraced run beside the gated
// metrics but kept out of BENCHMARK.json's end_to_end: first_op_s is a
// median of three single shots (26% spread in a noisy batch), op_s_p90 has
// fewer than ten samples beyond it on three workloads and a 27% spread on
// the fourth, and failed_frac is 0 on a healthy run, which the contract's
// metrics must never be (the result line's attempted/failed carry it).
// The traced run reports the first two as bench.first_op_s and
// bench.op_s_p90, where no bound applies.
var extras = []metricDef{
	{"first_op_s", "s", "lower", 0},
	{"op_s_p90", "s", "lower", 0},
	{"failed_frac", "frac", "lower", 0},
}

// perLayer lists the traced run's metrics, one module per prefix. A
// workload reports 0 for a layer its op never enters, which is itself the
// prediction "a change to that layer moves nothing here".
var perLayer = []metricDef{
	{"voronoi.cell_ns", "ns", "lower", 0},
	{"voronoi.cells_per_s_thread", "1/s", "higher", 0},
	{"voronoi.cell_allocs", "count", "lower", 0},
	{"voronoi.index_rebuild_ns_per_pt", "ns", "lower", 0},
	{"voronoi.faces_per_cell", "count", "lower", 0},
	{"voronoi.verts_per_cell", "count", "lower", 0},

	{"qhull.hull_ns_per_cell", "ns", "lower", 0},

	{"diy.decompose_rcb_s", "s", "lower", 0},
	{"diy.partition_ns_per_pt", "ns", "lower", 0},
	{"diy.exchange_round_s", "s", "lower", 0},
	{"diy.ghost_particles", "count", "lower", 0},
	{"diy.ghost_bytes", "B", "lower", 0},
	{"diy.collective_write_mb_s", "MB/s", "higher", 0},

	{"meshio.build_ns_per_cell", "ns", "lower", 0},
	{"meshio.encode_v1_mb_s", "MB/s", "higher", 0},
	{"meshio.encode_v2_mb_s", "MB/s", "higher", 0},
	{"meshio.decode_v2_mb_s", "MB/s", "higher", 0},
	{"meshio.bytes_per_cell_v1", "B", "lower", 0},
	{"meshio.bytes_per_cell_v2", "B", "lower", 0},
	{"meshio.merge_canonical_s", "s", "lower", 0},

	{"storage.chunk_load_mb_s", "MB/s", "higher", 0},
	{"storage.source_loads", "count", "lower", 0},
	{"storage.peak_resident_particles", "count", "lower", 0},
	{"storage.checkpoint_save_s", "s", "lower", 0},
	{"storage.checkpoint_bytes", "B", "lower", 0},

	{"voids.read_tess_s", "s", "lower", 0},
	{"voids.find_voids_s", "s", "lower", 0},

	{"density.triangulate_s", "s", "lower", 0},
	{"density.interpolate_s", "s", "lower", 0},
	{"density.finalize_s", "s", "lower", 0},
	{"delaunay.build_s", "s", "lower", 0},
	{"delaunay.tets", "count", "lower", 0},
	{"dtfe.estimate_s", "s", "lower", 0},
	{"dtfe.sample_ns_per_pt", "ns", "lower", 0},
	{"fft.forward3_32_s", "s", "lower", 0},

	{"core.open_s", "s", "lower", 0},
	{"core.close_s", "s", "lower", 0},
	{"core.step_s_p50", "s", "lower", 0},
	{"core.step_density_s_p50", "s", "lower", 0},
	{"core.phase_exchange_s", "s", "lower", 0},
	{"core.phase_ghostmerge_s", "s", "lower", 0},
	{"core.phase_compute_s", "s", "lower", 0},
	{"core.phase_output_s", "s", "lower", 0},
	{"core.phase_barrier_s", "s", "lower", 0},
	{"core.compute_imbalance", "ratio", "lower", 0},
	{"core.step_overhead_frac", "frac", "lower", 0},
	{"core.warm_site_frac", "frac", "higher", 0},

	{"jobd.submit_ms_p50", "ms", "lower", 0},
	{"jobd.queue_wait_ms_p50", "ms", "lower", 0},
	{"jobd.first_step_ms_p50", "ms", "lower", 0},
	{"jobd.run_ms_p50", "ms", "lower", 0},
	{"jobd.event_bytes_per_job", "B", "lower", 0},
	{"jobd.rejected", "count", "lower", 0},
	{"jobd.direct_s_p50", "s", "lower", 0},
	{"jobd.overhead_frac", "frac", "lower", 0},

	{"bench.first_op_s", "s", "lower", 0},
	{"bench.op_s_p90", "s", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
}

// exactCounts are the per-layer metrics that are counts made by the program
// from its inputs alone: for one seed they must repeat exactly between
// runs, which -selfcheck -trace 1 enforces. (Byte counts that embed
// wall-clock values — the checkpoint manifest, event timestamps — and
// allocation counts are left out.)
var exactCounts = []string{
	"voronoi.faces_per_cell", "voronoi.verts_per_cell",
	"diy.ghost_particles", "diy.ghost_bytes",
	"meshio.bytes_per_cell_v1", "meshio.bytes_per_cell_v2",
	"storage.source_loads", "storage.peak_resident_particles",
	"delaunay.tets", "jobd.rejected",
}

// runSeconds is the measured window of one run, the value the driver
// passes as -seconds. It is sized so that the slowest workload still
// collects enough ops for a steady median on a shared 2-core host while
// all of the driver's runs fit its time cap (see README, "Sizing").
const runSeconds = 16

// workloadDef names one workload, why it exists, and how to build it.
type workloadDef struct {
	Name string
	Why  string
	New  func(p params) workload
}

var workloads = []workloadDef{
	{
		"insitu-uniform",
		"Warm Session.Step on 32^3 N-body snapshots, the paper's in situ loop: the clipping kernel is ~98% of the op, so kernel work must show here and qhull, storage, encode or jobd changes must not.",
		newInsitu,
	},
	{
		"postproc-clustered",
		"Cold file-to-voids pipeline on a 24^3 halo mock with the public defaults: core rebuilt per op, clustered kernel, cull and Quickhull passes, RCB, storage reads and writes, void finding.",
		newPostproc,
	},
	{
		"density-warm",
		"Step then StepDensity per 16^3 snapshot: delaunay/dtfe/fft are ~80% of the op and the clipping kernel ~20%, the reverse of insitu-uniform; where density-from-the-dual must show.",
		newDensity,
	},
	{
		"tessd-tenants",
		"Closed-loop tenants through a loopback jobd daemon: spec decode, admission, a session per job, canonical merge and base64 NDJSON streaming dominate; the only workload with concurrent sessions.",
		newTenants,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// tenantCount is the number of closed-loop tenants of tessd-tenants: one
// per core up to four, so the load comes from at most nproc connections.
func tenantCount() int {
	return min(runtime.NumCPU(), 4)
}
