package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Result is one executed scenario: its provenance (normalized spec + hash)
// and a flat scalar metric map that aggregates and exports trivially.
type Result struct {
	Spec    Spec               `json:"spec"`
	Hash    string             `json:"hash"`
	Metrics map[string]float64 `json:"metrics"`
	// Telemetry carries the probe series and event trace when the spec has
	// a telemetry block; nil otherwise. It round-trips through the harness
	// cache with the rest of the result.
	Telemetry *telemetry.Output `json:"telemetry,omitempty"`
	// Cached reports whether the harness served this result from its disk
	// cache instead of simulating.
	Cached bool `json:"-"`
}

// MetricNames returns the result's metric keys sorted.
func (r *Result) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// modelKeys are the model outputs any kind can emit: what the simulated
// network did.
var modelKeys = []string{
	"queue_peak_bytes", "mean_util", "pause_frames", "resume_frames",
	"drops", "first_slowdown_us", "lhcs_triggers", "jain_all_active",
	"duration_us", "completed", "generated", "offered_load",
	"slowdown_avg", "slowdown_median", "slowdown_p95", "slowdown_p99",
	"all_done_us", "jain_min", "makespan_us", "completed_all",
	"burst_flows", "notify_latency_us",
}

// execKeys are the execution metrics: how the simulator ran, not what it
// simulated.
var execKeys = []string{
	// Simulator-performance telemetry (perfMetrics), attached to every
	// run so sweeps regression-track engine work and pool efficiency. All
	// deterministic for a given spec; host cost goes to Sink instead.
	"engine_events", "event_reuse_rate", "pool_hit_rate",
	// Fluid-backend incremental-engine telemetry: full vs worklist passes
	// and the affected fraction (links/flows/heap keys touched per event).
	// Deterministic for a given spec, like engine_events.
	"fluid_full_passes", "fluid_incremental_passes",
	"fluid_links_touched_per_event", "fluid_flows_touched_per_event",
	"fluid_heap_invalidations_per_event",
	// Telemetry bookkeeping, present only when the spec has a telemetry
	// block: probe samples recorded and trace events captured.
	"telemetry_samples", "trace_events",
	// Parallel-executor telemetry, present only when workers > 1 sharded
	// the run: partition size, worker count, barrier rounds and cross-shard
	// frame deliveries. All deterministic for a given spec.
	"parallel_workers", "parallel_shards", "parallel_windows",
	"cross_shard_messages",
}

var (
	modelMetrics = setOf(modelKeys...)
	// knownMetrics indexes every metric any kind can emit; Validate
	// rejects Collect entries outside it.
	knownMetrics = setOf(append(modelKeys, execKeys...)...)
)

func setOf(keys ...string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// IsModelMetric reports whether name is a model output rather than an
// execution metric; table formatters show only these.
func IsModelMetric(name string) bool { return modelMetrics[name] }

// IsKnownMetric reports whether some kind emits name. A cached result
// holding any other key was written by an older vocabulary.
func IsKnownMetric(name string) bool { return knownMetrics[name] }

// perfMetrics folds a finished run's engine and pool counters into the
// flat metric map: events fired, the event slot-pool and packet-pool hit
// rates, and the parallel executor's partition when the run was sharded.
// All of it is deterministic for a given spec (the pool rates and the
// parallel_* keys also for a given partition), so it is safe to cache;
// host cost (wall time, CPU, allocations) is not a result and is measured
// by obs.Meter instead.
func perfMetrics(m map[string]float64, net *netsim.Network) {
	es := net.TotalEngineStats()
	m["engine_events"] = float64(es.Processed)
	m["event_reuse_rate"] = es.ReuseRate()
	m["pool_hit_rate"] = net.TotalPoolStats().HitRate()
	if sh := net.ShardStats(); sh.Shards > 0 {
		m["parallel_workers"] = float64(sh.Workers)
		m["parallel_shards"] = float64(sh.Shards)
		m["parallel_windows"] = float64(sh.Windows)
		m["cross_shard_messages"] = float64(sh.Messages)
	}
}

// BuildScheme constructs the named scheme with parameter overrides applied.
// Supported keys: alpha, beta, lhcs (0/1), table_update_us for the FNCC
// variants; eta, max_stage, wai_bytes, min_wnd_bytes for FNCC variants and
// HPCC. Other schemes accept no overrides.
func BuildScheme(name string, over map[string]float64) (netsim.Scheme, error) {
	if len(over) == 0 {
		return exp.NewScheme(name)
	}
	switch name {
	case exp.SchemeFNCC, exp.SchemeFNCCNoLHCS:
		cfg := core.DefaultConfig()
		if name == exp.SchemeFNCCNoLHCS {
			cfg.EnableLHCS = false
		}
		for k, v := range over {
			switch k {
			case "alpha":
				cfg.Alpha = v
			case "beta":
				cfg.Beta = v
			case "lhcs":
				cfg.EnableLHCS = v != 0
			case "table_update_us":
				cfg.TableUpdatePeriod = sim.Time(v * float64(sim.Microsecond))
			default:
				if err := applyHPCCOverride(&cfg.HPCC, k, v); err != nil {
					return netsim.Scheme{}, err
				}
			}
		}
		s := core.NewScheme(cfg)
		s.Name = name
		return s, nil
	case exp.SchemeHPCC:
		cfg := cc.DefaultHPCCConfig()
		for k, v := range over {
			if err := applyHPCCOverride(&cfg, k, v); err != nil {
				return netsim.Scheme{}, err
			}
		}
		return cc.NewHPCCScheme(cfg), nil
	default:
		// Reject overrides rather than silently running defaults.
		if _, err := exp.NewScheme(name); err != nil {
			return netsim.Scheme{}, err
		}
		return netsim.Scheme{}, fmt.Errorf("scenario: scheme %q accepts no cc overrides", name)
	}
}

func applyHPCCOverride(cfg *cc.HPCCConfig, k string, v float64) error {
	switch k {
	case "eta":
		cfg.Eta = v
	case "max_stage":
		cfg.MaxStage = int(v)
	case "wai_bytes":
		cfg.WaiBytes = v
	case "min_wnd_bytes":
		cfg.MinWndBytes = v
	default:
		return fmt.Errorf("scenario: unknown cc override %q", k)
	}
	return nil
}

// Sink observes every executed run. ObserveRun fires once per successful
// simulation — never for cache hits, which don't simulate — with the
// normalized spec, its content hash, the full metric map *before* any
// Collect filtering, so engine-level stats (engine_events, pool_hit_rate,
// fluid_full_passes, ...) reach the sink even when the spec's Collect list
// strips them from the result, and the run's host cost. The host cost is
// measured only when a sink is attached and never enters the result. The
// callback runs synchronously on the run's goroutine and must not retain
// or mutate the map.
//
// This is the hook the harness uses to feed the operational-metrics
// registry (internal/obs); a nil Sink costs one pointer test per run.
type Sink interface {
	ObserveRun(sp Spec, hash string, metrics map[string]float64, host obs.Usage)
}

// runner executes one normalized spec of a given backend and kind.
type runner func(Spec) (map[string]float64, *telemetry.Output, error)

// runners is the dispatch table, runners[backend][kind]. The packet row
// covers every kind; the fluid row is the kinds whose outputs are flow-
// completion statistics, which the fluid model approximates. The others
// measure queue dynamics, PFC or sub-RTT rate timelines that only the
// packet engine produces, and Validate rejects them under fluid.
var runners = map[string]map[string]runner{
	BackendPacket: {
		KindMicro: runMicro, KindHop: runHop, KindNotify: runNotify,
		KindFairness: runFairness, KindFCT: runFCT, KindIncast: runIncast,
		KindPermutation: runPermutation, KindAllToAll: runAllToAll, KindMixed: runMixed,
	},
	BackendFluid: {
		KindFCT: runFCTFluid, KindIncast: runIncastFluid,
		KindPermutation: runPermutationFluid, KindAllToAll: runAllToAllFluid,
	},
}

// Run validates, normalizes and executes one scenario.
func Run(sp Spec) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return RunWithSink(sp, nil)
}

// RunWithSink normalizes and executes a spec that has already passed
// Validate, with an observer attached (see Sink). The harness validates
// each job once, before its cache lookup, and then calls this.
func RunWithSink(sp Spec, sink Sink) (*Result, error) {
	n := sp.Normalized()
	run := runners[n.BackendName()][n.Kind]
	if run == nil {
		return nil, fmt.Errorf("scenario: no %s runner for kind %q", n.BackendName(), n.Kind)
	}
	var meter obs.Meter
	if sink != nil {
		meter = obs.StartMeter()
	}
	m, tel, err := run(n)
	if err != nil {
		return nil, fmt.Errorf("scenario %s/%s/%s: %w", n.Kind, n.BackendName(), n.Scheme, err)
	}
	telemetryMetrics(m, tel)
	hash := n.Hash()
	if sink != nil {
		sink.ObserveRun(n, hash, m, meter.Stop())
	}
	return newResult(n, hash, m, tel), nil
}

// telemetryMetrics records a probed run's bookkeeping: samples recorded and
// trace events captured.
func telemetryMetrics(m map[string]float64, tel *telemetry.Output) {
	if tel != nil {
		m["telemetry_samples"] = float64(tel.Samples)
		m["trace_events"] = float64(tel.TraceTotal)
	}
}

// newResult assembles a normalized spec's result, keeping only the
// metrics its Collect list names (all of them when it is empty).
func newResult(n Spec, hash string, m map[string]float64, tel *telemetry.Output) *Result {
	if len(n.Collect) > 0 {
		keep := make(map[string]float64, len(n.Collect))
		for _, k := range n.Collect {
			if v, ok := m[k]; ok {
				keep[k] = v
			}
		}
		m = keep
	}
	return &Result{Spec: n, Hash: hash, Metrics: m, Telemetry: tel}
}

// slowdownMetrics folds a collector's whole-range slowdown distribution into
// the metric map.
func slowdownMetrics(m map[string]float64, col *metrics.FCTCollector) {
	d := col.SlowdownDist(0, math.MaxInt64)
	if d.N() == 0 {
		return
	}
	m["slowdown_avg"] = d.Mean()
	m["slowdown_median"] = d.Median()
	m["slowdown_p95"] = d.P95()
	m["slowdown_p99"] = d.P99()
}

// timeUs renders a simulation time in microseconds, passing through the -1
// "never" sentinel.
func timeUs(t sim.Time) float64 {
	if t < 0 {
		return -1
	}
	return float64(t) / float64(sim.Microsecond)
}
