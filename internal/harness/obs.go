package harness

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Registry metric names the harness maintains. Counters accumulate across
// every run the Runner executes; sweep.* gauges track the live RunAll in
// flight. Exposed as constants so tests and the CLI summary line don't
// drift from the writers.
const (
	MetricCacheHits = "harness.cache_hits"
	// MetricCacheMisses counts simulations: jobs neither cached, coalesced
	// onto an identical in-flight job, nor errored.
	MetricCacheMisses = "harness.cache_misses"
	// MetricCacheCoalesced counts jobs that rode an identical in-flight
	// simulation (singleflight within the process, or the .inflight marker
	// across processes sharing a cache dir) instead of simulating.
	MetricCacheCoalesced = "harness.cache_coalesced"
	// MetricCacheReaped counts orphaned .tmp- files and stale .inflight
	// markers the startup reaper deleted from the cache dir.
	MetricCacheReaped = "harness.cache_reaped"
	// MetricJobsDone and MetricJobsErrored partition every finished job:
	// done counts successes (simulated, cached, or coalesced), errored the
	// failures. Their sum is the number of runOne calls that returned.
	MetricJobsDone    = "harness.jobs_done"
	MetricJobsErrored = "harness.jobs_errored"

	MetricEngineEvents       = "engine.events_total"
	MetricEngineMallocs      = "engine.mallocs_total"
	MetricEngineAllocBytes   = "engine.alloc_bytes_total"
	MetricFluidFullPasses    = "fluid.full_passes_total"
	MetricFluidIncrPasses    = "fluid.incremental_passes_total"
	MetricTelemetrySamples   = "telemetry.samples_total"
	MetricTraceEvents        = "telemetry.trace_events_total"
	MetricEventsPerSecLast   = "engine.events_per_sec_last"
	MetricPoolHitRateLast    = "engine.pool_hit_rate_last"
	MetricEventReuseRateLast = "engine.event_reuse_rate_last"

	MetricJobWallMs  = "job.wall_ms"
	MetricJobEvents  = "job.engine_events"
	MetricJobMallocs = "job.mallocs"

	MetricSweepTotal        = "sweep.jobs_total"
	MetricSweepDone         = "sweep.jobs_done"
	MetricSweepCached       = "sweep.jobs_cached"
	MetricSweepErrored      = "sweep.jobs_errored"
	MetricSweepInFlight     = "sweep.jobs_in_flight"
	MetricSweepEventsPerSec = "sweep.events_per_sec"
)

// obsSink adapts the registry to scenario.Sink, with every instrument
// resolved once so the per-run cost is a handful of atomic adds. It feeds
// the engine-level stats each run already computes — sim.EngineStats and
// packet.PoolStats via the scenario perf metric columns, fluid.Stats's
// full-vs-incremental pass split — and the run's host cost (obs.Usage)
// into process-lifetime totals.
type obsSink struct {
	events, mallocs, allocBytes  *obs.Counter
	fluidFull, fluidIncr         *obs.Counter
	telemSamples, traceEvents    *obs.Counter
	epsLast, poolHit, eventReuse *obs.Gauge
	jobEvents, jobMallocs        *obs.Histogram
}

func newObsSink(reg *obs.Registry) *obsSink {
	return &obsSink{
		events:       reg.Counter(MetricEngineEvents),
		mallocs:      reg.Counter(MetricEngineMallocs),
		allocBytes:   reg.Counter(MetricEngineAllocBytes),
		fluidFull:    reg.Counter(MetricFluidFullPasses),
		fluidIncr:    reg.Counter(MetricFluidIncrPasses),
		telemSamples: reg.Counter(MetricTelemetrySamples),
		traceEvents:  reg.Counter(MetricTraceEvents),
		epsLast:      reg.Gauge(MetricEventsPerSecLast),
		poolHit:      reg.Gauge(MetricPoolHitRateLast),
		eventReuse:   reg.Gauge(MetricEventReuseRateLast),
		jobEvents:    reg.Histogram(MetricJobEvents),
		jobMallocs:   reg.Histogram(MetricJobMallocs),
	}
}

// ObserveRun implements scenario.Sink: fold one simulated run's engine
// stats and host cost into the registry. The metric map is the pre-Collect
// superset, so the perf columns are always present (fluid_* only on the
// fluid backend). Throughput divides by the whole run's wall time, model
// build included.
func (s *obsSink) ObserveRun(_ scenario.Spec, _ string, m map[string]float64, host obs.Usage) {
	s.events.Add(int64(m["engine_events"]))
	s.mallocs.Add(int64(host.Mallocs))
	s.allocBytes.Add(int64(host.AllocBytes))
	if wall := host.Wall.Seconds(); wall > 0 {
		s.epsLast.Set(m["engine_events"] / wall)
	}
	if v, ok := m["pool_hit_rate"]; ok {
		s.poolHit.Set(v)
	}
	if v, ok := m["event_reuse_rate"]; ok {
		s.eventReuse.Set(v)
	}
	if v, ok := m["fluid_full_passes"]; ok {
		s.fluidFull.Add(int64(v))
	}
	if v, ok := m["fluid_incremental_passes"]; ok {
		s.fluidIncr.Add(int64(v))
	}
	if v, ok := m["telemetry_samples"]; ok {
		s.telemSamples.Add(int64(v))
		s.traceEvents.Add(int64(m["trace_events"]))
	}
	s.jobEvents.Observe(m["engine_events"])
	s.jobMallocs.Observe(float64(host.Mallocs))
}

// sink returns the scenario.Sink feeding r.Obs, nil when obs is off. The
// nil return must be a true nil interface — a typed nil *obsSink would
// defeat scenario.RunWithSink's pointer test.
func (r *Runner) sink() scenario.Sink {
	if r.Obs == nil {
		return nil
	}
	r.sinkOnce.Do(func() { r.obsSink = newObsSink(r.Obs) })
	return r.obsSink
}

// observeProgress mirrors a progress snapshot into the sweep.* gauges.
func observeProgress(reg *obs.Registry, p Progress) {
	reg.Gauge(MetricSweepTotal).Set(float64(p.Total))
	reg.Gauge(MetricSweepDone).Set(float64(p.Done))
	reg.Gauge(MetricSweepCached).Set(float64(p.Cached))
	reg.Gauge(MetricSweepErrored).Set(float64(p.Errored))
	reg.Gauge(MetricSweepInFlight).Set(float64(p.InFlight))
	reg.Gauge(MetricSweepEventsPerSec).Set(p.EventsPerSec)
}

// jobSpan opens the per-job span under the sweep root, labelled with the
// sweep coordinates that identify the job in a trace viewer.
func (r *Runner) jobSpan(sp scenario.Spec, hash string, parent *obs.Span) *obs.Span {
	if r.Tracer == nil {
		return nil
	}
	s := r.Tracer.Start("job", parent)
	s.SetAttr("hash", hash)
	s.SetAttr("name", sp.Name)
	s.SetAttr("kind", sp.Kind)
	s.SetAttr("scheme", sp.Scheme)
	s.SetAttr("backend", sp.BackendName())
	s.SetAttr("seed", strconv.FormatInt(sp.Seed, 10))
	return s
}

// timeHist observes elapsed milliseconds on the named histogram; a nil
// registry makes it a no-op via the nil instrument.
func timeHist(reg *obs.Registry, name string, since time.Time) {
	reg.Histogram(name).Observe(float64(time.Since(since).Nanoseconds()) / 1e6)
}
