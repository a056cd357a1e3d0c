package harness

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

func microSpec(scheme string) scenario.Spec {
	return scenario.Spec{Kind: scenario.KindMicro, Scheme: scheme, DurationUs: 50}
}

// TestProgressTrackerInvariants hammers one tracker from many goroutines
// — the shape of a wide RunAll — and checks every emitted snapshot holds
// the structural invariants the /progress endpoint publishes: counts never
// exceed Total, nothing goes negative, and the throughput is a finite
// non-negative number. Run under -race in CI, this is also the data-race
// guard for the progress path.
func TestProgressTrackerInvariants(t *testing.T) {
	const total = 200
	var mu sync.Mutex
	var bad []string
	check := func(p Progress) {
		if p.Done+p.Errored+p.InFlight > p.Total || p.Done < 0 || p.Errored < 0 ||
			p.InFlight < 0 || p.Cached < 0 {
			mu.Lock()
			bad = append(bad, "count invariant broken")
			mu.Unlock()
		}
		if p.Cached > p.Done {
			mu.Lock()
			bad = append(bad, "cached exceeds done")
			mu.Unlock()
		}
		if p.EventsPerSec < 0 || math.IsNaN(p.EventsPerSec) || math.IsInf(p.EventsPerSec, 0) {
			mu.Lock()
			bad = append(bad, "events/sec not a finite non-negative")
			mu.Unlock()
		}
	}
	tracker := newProgressTracker(total, check)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < total/8; i++ {
				tracker.start()
				res := &scenario.Result{Metrics: map[string]float64{"engine_events": 1000}}
				if i%2 == 0 {
					res.Cached = true
				}
				tracker.finish(res, nil)
			}
		}(g)
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("%d invariant violations, first: %s", len(bad), bad[0])
	}
	tracker.mu.Lock()
	final := tracker.p
	tracker.mu.Unlock()
	wantCached := 8 * ((total/8 + 1) / 2) // even i per goroutine
	if final.Done != total || final.InFlight != 0 || final.Cached != wantCached {
		t.Errorf("final progress = %+v, want cached %d", final, wantCached)
	}
}

// TestProgressTrackerInstantSweep pins the all-cached corner: when every
// job completes in the same clock instant RunAll started, EventsPerSec
// must come out 0 — not NaN, not negative, not Inf.
func TestProgressTrackerInstantSweep(t *testing.T) {
	var last Progress
	tracker := newProgressTracker(3, func(p Progress) { last = p })
	for i := 0; i < 3; i++ {
		tracker.start()
		tracker.finish(&scenario.Result{Cached: true, Metrics: map[string]float64{}}, nil)
	}
	if last.Done != 3 || last.Cached != 3 {
		t.Fatalf("final progress = %+v", last)
	}
	if last.EventsPerSec != 0 || math.IsNaN(last.EventsPerSec) {
		t.Errorf("all-cached sweep events/sec = %g, want exactly 0", last.EventsPerSec)
	}
	// An errored finish lands in Errored, not Done, and must not panic.
	tracker2 := newProgressTracker(1, func(Progress) {})
	tracker2.start()
	tracker2.finish(nil, errors.New("boom"))
	tracker2.mu.Lock()
	p2 := tracker2.p
	tracker2.mu.Unlock()
	if p2.Done != 0 || p2.Errored != 1 || p2.InFlight != 0 {
		t.Errorf("errored finish progress = %+v, want Errored=1 Done=0", p2)
	}
}

// TestRunnerObsIntegration runs a small sweep with the full obs layer on
// and checks the registry totals and span tree line up with what actually
// happened: every job gets a span with cache-lookup and simulate phases,
// re-running from cache flips the counters to hits, and the engine stats
// flow through the scenario sink into process totals.
func TestRunnerObsIntegration(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	r := &Runner{CacheDir: t.TempDir(), Workers: 2, Obs: reg, Tracer: tracer}
	specs := []scenario.Spec{microSpec("FNCC"), microSpec("HPCC")}
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	s := reg.Snapshot()
	if s.Counters[MetricCacheMisses] != 2 || s.Counters[MetricCacheHits] != 0 {
		t.Errorf("first sweep counters: %+v", s.Counters)
	}
	if s.Counters[MetricJobsDone] != 2 {
		t.Errorf("jobs done = %d", s.Counters[MetricJobsDone])
	}
	wantEvents := int64(results[0].Metrics["engine_events"] + results[1].Metrics["engine_events"])
	if got := s.Counters[MetricEngineEvents]; got != wantEvents {
		t.Errorf("engine events total = %d, want %d (sink missed runs)", got, wantEvents)
	}
	if s.Gauges[MetricSweepDone] != 2 || s.Gauges[MetricSweepTotal] != 2 {
		t.Errorf("sweep gauges: %+v", s.Gauges)
	}
	if s.Histograms[MetricJobWallMs].Count != 2 {
		t.Errorf("job wall histogram count = %d", s.Histograms[MetricJobWallMs].Count)
	}

	// Span tree: one sweep root, two jobs under it, each with at least
	// cache-lookup + simulate + cache-store phases.
	spans := tracer.Spans()
	var rootID uint64
	jobs, phases := 0, map[string]int{}
	for _, sp := range spans {
		if sp.Name == "sweep" {
			rootID = sp.ID
		}
	}
	if rootID == 0 {
		t.Fatal("no sweep root span")
	}
	jobIDs := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Name == "job" && sp.Parent == rootID {
			jobs++
			jobIDs[sp.ID] = true
			if sp.Attrs["hash"] == "" || sp.Attrs["outcome"] != "simulated" {
				t.Errorf("job span attrs: %+v", sp.Attrs)
			}
		}
	}
	for _, sp := range spans {
		if jobIDs[sp.Parent] {
			phases[sp.Name]++
		}
	}
	if jobs != 2 || phases["cache-lookup"] != 2 || phases["simulate"] != 2 || phases["cache-store"] != 2 {
		t.Errorf("span coverage: jobs=%d phases=%v", jobs, phases)
	}

	// Second sweep over the same specs: all cache hits, sink untouched.
	r2 := &Runner{CacheDir: r.CacheDir, Obs: reg, Tracer: tracer}
	if _, err := r2.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	s = reg.Snapshot()
	if s.Counters[MetricCacheHits] != 2 {
		t.Errorf("cache hits after re-run = %d", s.Counters[MetricCacheHits])
	}
	if got := s.Counters[MetricEngineEvents]; got != wantEvents {
		t.Errorf("cached re-run changed engine totals: %d != %d", got, wantEvents)
	}
	for _, sp := range tracer.Spans() {
		if sp.Name == "job" && sp.Attrs["outcome"] == "cached" {
			return
		}
	}
	t.Error("no job span marked cached after the re-run")
}

// TestObsHostMetrics pins the host-cost registry entries: a simulated job
// feeds them from the sink's obs.Usage, and a fully cached re-run, which
// simulates nothing, leaves them untouched.
func TestObsHostMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	if _, err := (&Runner{CacheDir: dir, Obs: reg}).Run(microSpec("FNCC")); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	mallocs, bytes := s.Counters[MetricEngineMallocs], s.Counters[MetricEngineAllocBytes]
	eps := s.Gauges[MetricEventsPerSecLast]
	if mallocs <= 0 || bytes <= 0 || eps <= 0 {
		t.Fatalf("after one simulated job: mallocs=%d alloc_bytes=%d events_per_sec=%g, want all > 0",
			mallocs, bytes, eps)
	}
	r := &Runner{CacheDir: dir, Obs: reg}
	if _, err := r.Run(microSpec("FNCC")); err != nil {
		t.Fatal(err)
	}
	if hits, _ := r.Stats(); hits != 1 {
		t.Fatalf("re-run hits = %d, want 1", hits)
	}
	s = reg.Snapshot()
	if s.Counters[MetricEngineMallocs] != mallocs || s.Counters[MetricEngineAllocBytes] != bytes ||
		s.Gauges[MetricEventsPerSecLast] != eps {
		t.Errorf("cached re-run moved host metrics: mallocs %d→%d alloc_bytes %d→%d events_per_sec %g→%g",
			mallocs, s.Counters[MetricEngineMallocs], bytes, s.Counters[MetricEngineAllocBytes],
			eps, s.Gauges[MetricEventsPerSecLast])
	}
}

// TestCachedMetricsBitIdentical: a cached result holds only what the spec
// determines, so it equals the fresh run bit for bit on every key, on both
// backends.
func TestCachedMetricsBitIdentical(t *testing.T) {
	fluid := scenario.Spec{Kind: scenario.KindFCT, Scheme: "FNCC", Backend: scenario.BackendFluid,
		Topo: scenario.TopoSpec{K: 4}, Workload: scenario.WorkloadSpec{CDF: "websearch"},
		Load: 0.3, DurationUs: 200}
	for _, sp := range []scenario.Spec{microSpec("FNCC"), fluid} {
		dir := t.TempDir()
		fresh, err := (&Runner{CacheDir: dir, Obs: obs.NewRegistry()}).Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := (&Runner{CacheDir: dir}).Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Cached || !cached.Cached {
			t.Fatalf("%s: cached flags fresh=%v cached=%v", sp.BackendName(), fresh.Cached, cached.Cached)
		}
		if len(fresh.Metrics) != len(cached.Metrics) {
			t.Errorf("%s: %d fresh keys, %d cached", sp.BackendName(), len(fresh.Metrics), len(cached.Metrics))
		}
		for k, v := range fresh.Metrics {
			if c, ok := cached.Metrics[k]; !ok || math.Float64bits(c) != math.Float64bits(v) {
				t.Errorf("%s: %s fresh %v, cached %v (present %v)", sp.BackendName(), k, v, c, ok)
			}
		}
	}
}

// TestRunnerObsOffIsInert pins the other side of the contract: a Runner
// with no Obs/Tracer behaves exactly as before the layer existed — no
// spans, results identical to an instrumented run.
func TestRunnerObsOffIsInert(t *testing.T) {
	plain := &Runner{}
	instr := &Runner{Obs: obs.NewRegistry(), Tracer: obs.NewTracer()}
	a, err := plain.Run(microSpec("FNCC"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := instr.Run(microSpec("FNCC"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Errorf("hash differs with obs on: %s != %s", a.Hash, b.Hash)
	}
	for _, k := range []string{"queue_peak_bytes", "engine_events", "mean_util"} {
		if math.Float64bits(a.Metrics[k]) != math.Float64bits(b.Metrics[k]) {
			t.Errorf("metric %s differs with obs on: %g != %g", k, a.Metrics[k], b.Metrics[k])
		}
	}
}

// TestRunAllCtxInterrupt cancels mid-sweep and checks the contract: the
// completed prefix comes back with ErrInterrupted, everything returned is
// in the cache, and a resumed run serves those points as hits.
func TestRunAllCtxInterrupt(t *testing.T) {
	cacheDir := t.TempDir()
	specs := make([]scenario.Spec, 8)
	for i := range specs {
		sp := microSpec("FNCC")
		sp.Seed = 0
		sp.DurationUs = int64(50 + i) // distinct hashes
		specs[i] = sp
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	r := &Runner{CacheDir: cacheDir, Workers: 1, OnProgress: func(p Progress) {
		done = p.Done
		if p.Done == 2 {
			cancel() // cancel after the second job completes
		}
	}}
	results, err := r.RunAllCtx(ctx, specs)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(results) == 0 || len(results) >= len(specs) {
		t.Fatalf("partial results = %d of %d (done=%d)", len(results), len(specs), done)
	}
	for _, res := range results {
		if res == nil {
			t.Fatal("nil result in completed prefix")
		}
	}
	// Resume: the finished points must be cache hits, the rest simulate.
	r2 := &Runner{CacheDir: cacheDir}
	full, err := r2.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(specs) {
		t.Fatalf("resumed sweep = %d results", len(full))
	}
	hits, _ := r2.Stats()
	if int(hits) < len(results) {
		t.Errorf("resume served %d hits, want >= %d (interrupted jobs lost their cache writes)", hits, len(results))
	}
}

// TestRunAllCtxUncancelled pins that the context path is invisible when
// never cancelled.
func TestRunAllCtxUncancelled(t *testing.T) {
	r := &Runner{}
	results, err := r.RunAllCtx(context.Background(), []scenario.Spec{microSpec("FNCC")})
	if err != nil || len(results) != 1 {
		t.Fatalf("RunAllCtx = %d results, %v", len(results), err)
	}
}
