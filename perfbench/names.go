package main

// metricDef is one reported metric: its name, unit and which direction
// is an improvement. The lists below are the single source of truth for
// what the benchmark prints; BENCHMARK.json must list the same names in
// the same groups (TestBenchmarkJSONMatchesTables pins that).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees. Every workload prints
// every one of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_tasks_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"p50_ms", "ms", "lower"},
	{"capacity_qps", "1/s", "higher"},
}

// perLayer names each layer metric <module>.<metric> after the repo
// package that does the work (loadgen and perfbench are the
// benchmark's own generator and harness). Metrics of a layer a workload
// does not exercise read 0 there.
var perLayer = []metricDef{
	// Public calls that make up accel.RunContext / cluster.RunContext.
	{"accel.new_ms", "ms", "lower"},
	{"accel.start_us", "us", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"accel.drained_us", "us", "lower"},
	{"metrics.verify_ms", "ms", "lower"},
	{"accel.collect_ms", "ms", "lower"},
	{"cluster.new_ms", "ms", "lower"},
	{"cluster.run_ms", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	// Modelled counts: exact, and fixed under a simulator-only change.
	{"sim.cycles", "count", "lower"},
	{"pe.compute_cycles", "count", "lower"},
	{"pe.memstall_cycles", "count", "lower"},
	{"pe.sched_cycles", "count", "lower"},
	{"pe.idle_cycles", "count", "lower"},
	{"task.executed", "count", "lower"},
	{"task.leaf", "count", "lower"},
	{"task.pruned_fetches", "count", "higher"},
	{"core.splits_carved", "count", "lower"},
	{"core.merge_feeds", "count", "lower"},
	{"core.conservative_transitions", "count", "lower"},
	{"mem.l1_miss_ratio", "ratio", "lower"},
	{"mem.l2_miss_ratio", "ratio", "lower"},
	{"mem.dram_reads", "count", "lower"},
	{"mem.dram_row_hit_ratio", "ratio", "higher"},
	{"mem.noc_messages", "count", "lower"},
	{"cluster.migrations", "count", "lower"},
	{"cluster.inter_lines", "count", "lower"},
	// Served request phases, joined from the daemon's access log.
	{"serve.parse_us.p50", "us", "lower"},
	{"serve.parse_us.p99", "us", "lower"},
	{"serve.queue_us.p50", "us", "lower"},
	{"serve.queue_us.p99", "us", "lower"},
	{"serve.graph_us.p50", "us", "lower"},
	{"serve.graph_us.p99", "us", "lower"},
	{"serve.schedule_us.p50", "us", "lower"},
	{"serve.schedule_us.p99", "us", "lower"},
	{"serve.run_us.p50", "us", "lower"},
	{"serve.run_us.p99", "us", "lower"},
	{"serve.encode_us.p50", "us", "lower"},
	{"serve.encode_us.p99", "us", "lower"},
	{"serve.net_us.p50", "us", "lower"},
	{"serve.net_us.p99", "us", "lower"},
	{"serve.graph_cache_hit_ratio", "ratio", "higher"},
	{"serve.graph_cache_evictions", "count", "lower"},
	{"serve.schedule_cache_hit_ratio", "ratio", "higher"},
	// In-process replays of the work the daemon does.
	{"graph.parse_ms", "ms", "lower"},
	{"mine.count_ms", "ms", "lower"},
	{"mine.tasks", "count", "lower"},
	{"mine.setop_elements", "count", "lower"},
	{"datasets.build_ms", "ms", "lower"},
	{"pattern.build_us", "us", "lower"},
	// Client latency tail of the traced open loop: the highest
	// percentile with ten samples beyond it (p99 from 1000 samples). It
	// is not end-to-end because on a shared 2-CPU host its run-to-run
	// spread was two to four times the median's.
	{"loadgen.latency_tail_ms", "ms", "lower"},
	// Validity of the measurement itself.
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"perfbench.trace_overhead_pct", "%", "lower"},
	{"perfbench.unattributed_pct", "%", "lower"},
}
