package main

import (
	"encoding/json"
)

// runSeconds is the --seconds the driver passes and the default here.
const runSeconds = 12

// endToEndDef is a metric a user of the system would see. Bound is the
// share of the parent's median by which it may get worse before a change
// counts as a regression; BENCHMARK.md records how each was chosen.
type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEnd = []endToEndDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// layerDef is a metric of one layer, named <package>.<metric>. Exact marks
// counts and simulated times that repeat bit-for-bit for a given seed, so
// two commits compare exactly (-compare reports them as same/changed).
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Exact  bool   `json:"-"`
}

var perLayer = []layerDef{
	{"sim.run_ms", "ms", "lower", false},
	{"sim.timer_event_ns", "ns", "lower", false},
	{"sim.proc_switch_ns", "ns", "lower", false},
	{"sim.parallel_wall_ms", "ms", "lower", false},
	{"sim.oracle_wall_ms", "ms", "lower", false},
	{"sim.parallel_speedup", "x", "higher", false},
	{"sim.sim_us_per_op", "us", "lower", true},
	{"cluster.machine_build_ms", "ms", "lower", false},
	{"mpi.world_build_ms", "ms", "lower", false},
	{"mpi.barrier_run_ms", "ms", "lower", false},
	{"mpi.p2p_eager_msg_ns", "ns", "lower", false},
	{"mpi.p2p_rndv_msg_ns", "ns", "lower", false},
	{"mpi.messages", "count", "lower", true},
	{"mpi.sent_bytes", "count", "lower", true},
	{"mpi.unexpected_messages", "count", "lower", true},
	{"mpi.rendezvous_stalls", "count", "lower", true},
	{"mpi.retransmits", "count", "lower", true},
	{"mpi.barrier_sim_us", "us", "lower", true},
	{"flow.fanin128_flow_ns", "ns", "lower", false},
	{"flow.chain_flow_ns", "ns", "lower", false},
	{"flow.flows_started", "count", "lower", true},
	{"flow.flow_bytes", "count", "lower", true},
	{"han.collective_run_ms", "ms", "lower", false},
	{"han.sim_us", "us", "lower", true},
	{"han.tasks", "count", "lower", true},
	{"han.segments_per_collective", "count", "lower", true},
	{"han.fallbacks", "count", "lower", true},
	{"autotune.search_combined_ms", "ms", "lower", false},
	{"autotune.search_exhaustive_ms", "ms", "lower", false},
	{"autotune.measure_tasks_ms", "ms", "lower", false},
	{"autotune.measurements", "count", "lower", true},
	{"autotune.tuning_cost_sim_s", "s", "lower", true},
	{"autotune.decide_ns", "ns", "lower", false},
	{"autotune.table_load_ms", "ms", "lower", false},
	{"exec.jobs", "count", "lower", true},
	{"exec.steals", "count", "lower", false},
	{"exec.cache_hits", "count", "higher", true},
	{"exec.cache_misses", "count", "lower", true},
	{"exec.parallel_peak", "count", "higher", false},
	{"exec.speedup_workers", "x", "higher", false},
	{"exec.job_overhead_ns", "ns", "lower", false},
	{"serve.decide_hit_ns", "ns", "lower", false},
	{"serve.decide_miss_ns", "ns", "lower", false},
	{"serve.publish_us", "us", "lower", false},
	{"serve.wire_rtt_us", "us", "lower", false},
	{"serve.tcp_echo_rtt_us", "us", "lower", false},
	{"serve.wire_overhead_us", "us", "lower", false},
	{"serve.op_p99_us", "us", "lower", false},
	{"serve.cache_hit_ratio", "ratio", "higher", false},
	{"serve.cache_stale", "count", "lower", false},
	{"serve.evictions", "count", "lower", false},
	{"serve.table_misses", "count", "lower", false},
	{"serve.wire_errors", "count", "lower", false},
	{"serve.server_p99_us", "us", "lower", false},
	{"go.bytes_per_op", "count", "lower", false},
	{"go.gc_cycles_per_op", "count", "lower", false},
	{"go.gc_pause_ms_per_op", "ms", "lower", false},
	{"benchmark.op_p50_ms", "ms", "lower", false},
	{"benchmark.cpu_ms_per_op", "ms", "lower", false},
	{"benchmark.trace_overhead_pct", "%", "lower", false},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest renders BENCHMARK.json from the tables above, so the file at
// the repository root and the program cannot disagree (a self-test
// compares them).
func manifest() []byte {
	var wl []workloadDef
	for _, w := range workloads {
		wl = append(wl, workloadDef{w.name, w.why})
	}
	b, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []endToEndDef `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		// The package is named by import path: "." would name the repository
		// root, which is outside the benchmark's own directory.
		Command:    []string{"go", "run", "-C", "benchmark", "github.com/hanrepro/han/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  wl,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // the tables are plain strings and numbers
	}
	return append(b, '\n')
}
