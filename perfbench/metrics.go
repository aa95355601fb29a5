package main

// metricDef is one reported metric. For a per-layer metric, moves and
// on name the end-to-end metric it should move and the workload where
// that shows.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics a user of the run surfaces sees, reported by
// every untraced run. error_rate is not among them: it is 0 on a
// correct run, so it travels as the result line's failed/attempted
// counts and is printed beside the metrics.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "throughput_rps", unit: "req/s", better: "higher"},
	{name: "hit_p50_ms", unit: "ms", better: "lower"},
	{name: "hit_p99_ms", unit: "ms", better: "lower"},
	{name: "miss_p50_ms", unit: "ms", better: "lower"},
	{name: "miss_p95_ms", unit: "ms", better: "lower"},
}

// appNames and the backends are the apps layer's grid; every workload
// reports every cell, 0 where it runs no such configuration.
var appNames = []string{"moldyn", "nbf", "spmv", "unstruct", "tsp", "taskq"}

// perLayer are the traced run's metrics, each timed from outside by
// calls into one module's public functions. A metric a workload does
// not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.parse_us", "us", "lower", "hit_p50_ms", "simd-mix"},
		{"scenario.address_us", "us", "lower", "hit_p50_ms", "simd-mix"},
		{"scenario.self_s", "s", "lower", "hit_p50_ms", "simd-mix"},
		{"runner.do_s", "s", "lower", "wall_s", "paper-tables"},
		{"runner.busy_ratio", "ratio", "higher", "wall_s", "paper-tables"},
		{"runner.self_s", "s", "lower", "wall_s", "paper-tables"},
		{"bench.run_s", "s", "lower", "wall_s", "paper-tables, memory-anecdote, lock-taskq"},
		{"bench.present_us", "us", "lower", "hit_p50_ms", "simd-mix"},
		{"bench.encode_us", "us", "lower", "hit_p99_ms", "simd-mix"},
		{"bench.decode_us", "us", "lower", "hit_p99_ms", "simd-mix"},
		{"bench.result_kb", "KB", "lower", "hit_p99_ms", "simd-mix"},
		{"bench.anecdote_s", "s", "lower", "wall_s", "memory-anecdote"},
		{"bench.self_s", "s", "lower", "wall_s", "paper-tables"},
	}
	for _, app := range appNames {
		on := "paper-tables"
		switch app {
		case "taskq", "tsp":
			on = "lock-taskq, paper-tables"
		case "moldyn":
			on = "memory-anecdote, paper-tables"
		}
		for _, v := range variants {
			p := "apps." + app + "." + v
			defs = append(defs,
				metricDef{p + ".host_s", "s", "lower", "wall_s", on},
				metricDef{p + ".alloc_mb", "MB", "lower", "cpu_s", on},
				metricDef{p + ".msgs", "count", "lower", "wall_s", on})
		}
		defs = append(defs, metricDef{"apps." + app + ".new_ms", "ms", "lower", "wall_s", on})
	}
	return append(defs,
		metricDef{"apps.verify_us", "us", "lower", "miss_p50_ms", "simd-mix"},
		metricDef{"apps.self_s", "s", "lower", "wall_s", "paper-tables"},
		metricDef{"cache.mem.get_us", "us", "lower", "hit_p50_ms", "simd-mix"},
		metricDef{"cache.mem.hit_ratio", "ratio", "higher", "hit_p50_ms", "simd-mix"},
		metricDef{"cache.self_s", "s", "lower", "hit_p50_ms", "simd-mix"},
		metricDef{"cache.disk.get_us", "us", "lower", "hit_p99_ms", "simd-mix"},
		metricDef{"cache.disk.put_us", "us", "lower", "miss_p50_ms", "simd-mix"},
		metricDef{"cache.disk.hit_ratio", "ratio", "higher", "hit_p99_ms", "simd-mix"},
		metricDef{"cache.disk.corrupt", "count", "lower", "hit_p99_ms", "simd-mix"},
		metricDef{"cache.disk.self_s", "s", "lower", "hit_p99_ms", "simd-mix"},
		metricDef{"simd.submit_ms", "ms", "lower", "throughput_rps", "simd-mix"},
		metricDef{"simd.status_ms", "ms", "lower", "hit_p50_ms", "simd-mix"},
		metricDef{"simd.render_ms", "ms", "lower", "hit_p50_ms", "simd-mix"},
		metricDef{"simd.exec_s", "s", "lower", "miss_p50_ms", "simd-mix"},
		metricDef{"simd.overhead_ms", "ms", "lower", "miss_p50_ms", "simd-mix"},
		metricDef{"simd.runs_executed", "count", "lower", "throughput_rps", "simd-mix"},
		metricDef{"simd.miss_realized_ratio", "ratio", "higher", "miss_p50_ms", "simd-mix"},
		metricDef{"simd.coalesced", "count", "higher", "throughput_rps", "simd-mix"},
		metricDef{"simd.shed", "count", "lower", "throughput_rps", "simd-mix"},
		metricDef{"simd.self_s", "s", "lower", "throughput_rps", "simd-mix"},
		metricDef{"go.alloc_mb", "MB", "lower", "cpu_s", "lock-taskq"},
		metricDef{"go.gc_cycles", "count", "lower", "cpu_s", "lock-taskq"},
		metricDef{"go.gc_pause_ms", "ms", "lower", "wall_s", "lock-taskq"},
		metricDef{"trace.overhead_ratio", "ratio", "lower", "wall_s", "all"},
		metricDef{"trace.uncovered_ratio", "ratio", "lower", "wall_s", "all"},
	)
}()

// selfLayers maps each traced module to its self-time metric.
var selfLayers = map[string]string{
	"scenario":   "scenario.self_s",
	"runner":     "runner.self_s",
	"bench":      "bench.self_s",
	"apps":       "apps.self_s",
	"cache":      "cache.self_s",
	"cache/disk": "cache.disk.self_s",
	"simd":       "simd.self_s",
}
