package main

import (
	"sort"
	"time"
)

// metricDef is one reported metric: its name, unit and whether it is an
// end-to-end figure (reported with tracing off) or a per-layer one
// (reported by the traced run). BENCHMARK.json declares the same set; the
// smoke test holds the two in step.
type metricDef struct {
	name, unit string
	e2e        bool
}

// cpuLayers are the layers the traced run's CPU profile folds into, in
// report order. "cc" covers internal/cc and internal/core; "scenario"
// covers internal/scenario and the internal/exp runners it dispatches to;
// "other" is everything no repository frame claims (the benchmark's own
// client code, net/http and syscalls outside a handler, the profiler).
var cpuLayers = []string{"sim", "netsim", "shard", "cc", "packet", "metrics",
	"fluid", "workload", "topo", "scenario", "harness", "sweepd", "obs",
	"telemetry", "runtime.gc", "runtime.sched", "other"}

var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", true},
		{"sim_wall_s", "s", true},
		{"peak_rss_mb", "MB", true},
		{"points_per_s", "1/s", true},
		{"first_point_s", "s", true},
		{"cached_point_ms", "ms", true},

		{"sim.events", "count", false},
		{"sim.ns_per_event", "ns", false},
		{"sim.event_reuse_rate", "ratio", false},
		{"netsim.run_s", "s", false},
		{"topo.build_s", "s", false},
		{"workload.generate_s", "s", false},
		{"workload.flows", "count", false},
		{"metrics.collect_s", "s", false},
		{"packet.pool_hit_rate", "ratio", false},
		{"runtime.alloc_mb_per_sim", "MB", false},
		{"shard.windows", "count", false},
		{"shard.messages", "count", false},
		{"shard.cpu_busy_frac", "ratio", false},
		{"shard.workers", "count", false},
		{"shard.serial_wall_s", "s", false},
		{"shard.sharded_wall_s", "s", false},
		{"shard.parallel_speedup", "ratio", false},
		{"fluid.events", "count", false},
		{"fluid.us_per_event", "us", false},
		{"fluid.full_passes", "count", false},
		{"fluid.incremental_passes", "count", false},
		{"fluid.links_touched_per_event", "ratio", false},
		{"fluid.flows_touched_per_event", "ratio", false},
		{"fluid.heap_invalidations_per_event", "ratio", false},
		{"harness.cache_hits", "count", false},
		{"harness.cache_misses", "count", false},
		{"harness.cache_coalesced", "count", false},
		{"harness.jobs_errored", "count", false},
		{"harness.lookup_ms", "ms", false},
		{"harness.store_ms", "ms", false},
		{"harness.pool_busy_frac", "ratio", false},
		{"sweepd.request_ms", "ms", false},
		{"sweepd.stream_lag_ms", "ms", false},
		{"telemetry.samples", "count", false},
		{"trace.overhead", "ratio", false},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "%", false})
	}
	return defs
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
