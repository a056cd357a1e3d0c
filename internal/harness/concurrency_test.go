package harness

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// repeatSpec returns the same cheap spec n times — the degenerate sweep
// that used to simulate n times.
func repeatSpec(n int) []scenario.Spec {
	specs := make([]scenario.Spec, n)
	for i := range specs {
		specs[i] = microSpec("FNCC")
	}
	return specs
}

// TestSingleflightDuplicateSpecs: a sweep containing the same spec 8×
// performs exactly one simulation; the other seven coalesce onto it (or
// hit the cache if they start after the leader stored). Runs under -race
// in CI, which also makes it the data-race guard for the flight table.
func TestSingleflightDuplicateSpecs(t *testing.T) {
	reg := obs.NewRegistry()
	r := &Runner{CacheDir: t.TempDir(), Workers: 8, Obs: reg}
	results, err := r.RunAll(repeatSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d, want 8", len(results))
	}
	hits, misses := r.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 simulation", misses)
	}
	if hits+r.Coalesced() != 7 {
		t.Fatalf("hits=%d coalesced=%d, want them to cover the other 7 jobs",
			hits, r.Coalesced())
	}
	s := reg.Snapshot()
	if s.Counters[MetricCacheMisses] != 1 {
		t.Errorf("%s = %d, want 1", MetricCacheMisses, s.Counters[MetricCacheMisses])
	}
	if s.Counters[MetricCacheCoalesced] != r.Coalesced() {
		t.Errorf("%s = %d, want %d", MetricCacheCoalesced,
			s.Counters[MetricCacheCoalesced], r.Coalesced())
	}
	if s.Counters[MetricJobsDone] != 8 {
		t.Errorf("%s = %d, want 8", MetricJobsDone, s.Counters[MetricJobsDone])
	}
	// Every copy carries the full metric map of the one simulation.
	for i, res := range results {
		if len(res.Metrics) == 0 || res.Metrics["engine_events"] != results[0].Metrics["engine_events"] {
			t.Fatalf("result %d metrics diverge from the leader's", i)
		}
	}
}

// TestSingleflightNoCache pins that coalescing works without a cache dir:
// waiters share the leader's in-memory result instead of re-loading. With
// no cache there is nothing for late starters to hit, so the test releases
// all callers through a barrier while the leader (a ~50 ms job) is still
// simulating — only overlapping work can coalesce.
func TestSingleflightNoCache(t *testing.T) {
	sp := microSpec("FNCC")
	sp.DurationUs = 2000
	r := &Runner{}
	const callers = 8
	var ready, wg sync.WaitGroup
	release := make(chan struct{})
	results := make([]*scenario.Result, callers)
	errs := make([]error, callers)
	ready.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-release
			results[i], errs[i] = r.Run(sp)
		}(i)
	}
	ready.Wait()
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if _, misses := r.Stats(); misses != 1 {
		t.Fatalf("misses = %d, want 1 (no cache, pure singleflight)", misses)
	}
	if r.Coalesced() != callers-1 {
		t.Fatalf("coalesced = %d, want %d", r.Coalesced(), callers-1)
	}
	// Shared-copy results must still carry the leader's metrics.
	for _, res := range results {
		if res == nil || res.Metrics == nil {
			t.Fatal("coalesced result lost its metrics")
		}
	}
}

// TestSingleflightNameIndependence: the cache key ignores Name, so two
// differently named copies of one spec coalesce — and each caller still
// gets its own label back.
func TestSingleflightNameIndependence(t *testing.T) {
	a := microSpec("FNCC")
	a.Name = "alpha"
	b := microSpec("FNCC")
	b.Name = "beta"
	r := &Runner{CacheDir: t.TempDir(), Workers: 2}
	results, err := r.RunAll([]scenario.Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := r.Stats(); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if results[0].Spec.Name != "alpha" || results[1].Spec.Name != "beta" {
		t.Errorf("names = %q/%q, want alpha/beta",
			results[0].Spec.Name, results[1].Spec.Name)
	}
}

// TestLeaderRechecksCacheAfterLookupMiss forces the interleaving behind the
// old TestSingleflightNameIndependence flake, with no sleeps: job beta misses
// the cache, then — before beta bids for flight leadership — job alpha
// simulates, stores and leaves the flight table. Beta then leads with an
// empty flight table and must find alpha's entry on its second look instead
// of simulating the hash again.
func TestLeaderRechecksCacheAfterLookupMiss(t *testing.T) {
	a := microSpec("FNCC")
	a.Name = "alpha"
	b := microSpec("FNCC")
	b.Name = "beta"
	r := &Runner{CacheDir: t.TempDir()}
	var alphaErr error
	ranAlpha := false
	r.afterLookupMiss = func() {
		if ranAlpha {
			return // alpha's own miss
		}
		ranAlpha = true
		_, alphaErr = r.Run(a)
	}
	res, err := r.Run(b)
	if err != nil || alphaErr != nil {
		t.Fatalf("beta: %v, alpha: %v", err, alphaErr)
	}
	if !ranAlpha {
		t.Fatal("the lookup-miss seam never ran")
	}
	if hits, misses := r.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1 (beta must adopt alpha's entry)", hits, misses)
	}
	if !res.Cached || res.Spec.Name != "beta" {
		t.Fatalf("beta result: cached=%v name=%q, want a cached result named beta",
			res.Cached, res.Spec.Name)
	}
	if _, err := os.Stat(r.markerPath(res.Hash)); !os.IsNotExist(err) {
		t.Fatalf("in-flight marker left behind: %v", err)
	}
}

// TestCrossProcessExactlyOnce: two Runners sharing one CacheDir — the
// in-process stand-in for two server processes on one cache volume — race
// on the same spec and simulate exactly once between them. Each Runner has
// its own singleflight table, so this exercises the .inflight marker
// protocol, not the in-memory path. Runs under -race in CI.
func TestCrossProcessExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	const racers = 4
	runners := make([]*Runner, racers)
	for i := range runners {
		runners[i] = &Runner{CacheDir: dir}
	}
	var wg sync.WaitGroup
	errs := make([]error, racers)
	results := make([]*scenario.Result, racers)
	for i := range runners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runners[i].Run(microSpec("FNCC"))
		}(i)
	}
	wg.Wait()
	var misses, hits, coalesced int64
	for i, r := range runners {
		if errs[i] != nil {
			t.Fatalf("runner %d: %v", i, errs[i])
		}
		if results[i] == nil || len(results[i].Metrics) == 0 {
			t.Fatalf("runner %d returned an empty result", i)
		}
		h, m := r.Stats()
		hits += h
		misses += m
		coalesced += r.Coalesced()
	}
	if misses != 1 {
		t.Fatalf("total misses = %d, want exactly 1 simulation across all runners", misses)
	}
	if hits+coalesced != racers-1 {
		t.Fatalf("hits=%d coalesced=%d, want them to cover the other %d runners",
			hits, coalesced, racers-1)
	}
	// The marker must not outlive the winner.
	if _, err := os.Stat(filepath.Join(dir, microSpec("FNCC").Hash()+inflightSuffix)); err == nil {
		t.Error("in-flight marker leaked after all runners finished")
	}
}

// TestStaleMarkerReclaimed: a marker left by a crashed process (old mtime,
// no result file ever coming) must not wedge the hash forever — a new
// Runner reclaims it and simulates.
func TestStaleMarkerReclaimed(t *testing.T) {
	dir := t.TempDir()
	sp := microSpec("FNCC")
	marker := filepath.Join(dir, sp.Hash()+inflightSuffix)
	if err := os.WriteFile(marker, []byte("pid 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * markerStaleAfter)
	if err := os.Chtimes(marker, old, old); err != nil {
		t.Fatal(err)
	}
	r := &Runner{CacheDir: dir}
	res, err := r.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("stale marker produced a phantom cache hit")
	}
	if _, misses := r.Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1 (reclaimed and simulated)", misses)
	}
}

// TestTempFileReaping: Runner startup deletes aged-out .tmp- orphans and
// stale .inflight markers but leaves fresh ones (a live writer) alone.
func TestTempFileReaping(t *testing.T) {
	dir := t.TempDir()
	oldTmp := filepath.Join(dir, "sc-dead.tmp-123")
	freshTmp := filepath.Join(dir, "sc-live.tmp-456")
	oldMarker := filepath.Join(dir, "sc-dead"+inflightSuffix)
	for _, p := range []string{oldTmp, freshTmp, oldMarker} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-2 * tmpMaxAge)
	for _, p := range []string{oldTmp, oldMarker} {
		if err := os.Chtimes(p, past, past); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	r := &Runner{CacheDir: dir, Obs: reg}
	if _, err := r.Run(microSpec("FNCC")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(oldTmp); !os.IsNotExist(err) {
		t.Error("aged-out temp file survived the reaper")
	}
	if _, err := os.Stat(oldMarker); !os.IsNotExist(err) {
		t.Error("stale in-flight marker survived the reaper")
	}
	if _, err := os.Stat(freshTmp); err != nil {
		t.Error("fresh temp file was reaped (live writer's file deleted)")
	}
	if got := reg.Snapshot().Counters[MetricCacheReaped]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricCacheReaped, got)
	}
}

// TestErroredAccounting: a failing job lands in jobs_errored and
// Progress.Errored — not in jobs_done — and still observes job.wall_ms,
// so the histogram covers the whole sweep (simulated + cached + errored).
func TestErroredAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	good := microSpec("FNCC")
	// Warm the cache so the sweep below has a cached outcome too.
	warm := &Runner{CacheDir: dir}
	if _, err := warm.Run(good); err != nil {
		t.Fatal(err)
	}
	bad := microSpec("FNCC")
	bad.Kind = "no-such-kind" // fails Validate inside runOne
	var last Progress
	r := &Runner{CacheDir: dir, Workers: 1, Obs: reg,
		OnProgress: func(p Progress) { last = p }}
	_, err := r.RunAll([]scenario.Spec{good, bad})
	if err == nil {
		t.Fatal("sweep with an invalid spec succeeded")
	}
	s := reg.Snapshot()
	if s.Counters[MetricJobsErrored] != 1 {
		t.Errorf("%s = %d, want 1", MetricJobsErrored, s.Counters[MetricJobsErrored])
	}
	if s.Counters[MetricJobsDone] != 1 {
		t.Errorf("%s = %d, want 1 (errored job folded into done)", MetricJobsDone,
			s.Counters[MetricJobsDone])
	}
	if last.Errored != 1 || last.Done != 1 {
		t.Errorf("progress = %+v, want Done=1 Errored=1", last)
	}
	if s.Gauges[MetricSweepErrored] != 1 {
		t.Errorf("%s gauge = %g, want 1", MetricSweepErrored, s.Gauges[MetricSweepErrored])
	}
	// wall_ms must cover both outcomes: one cached hit + one errored job.
	if got := s.Histograms[MetricJobWallMs].Count; got != 2 {
		t.Errorf("%s count = %d, want 2 (cached + errored both observed)",
			MetricJobWallMs, got)
	}
}
