package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// ErrInterrupted reports that RunAllCtx's context was cancelled mid-sweep:
// the returned results cover every job that finished (all of them safely
// in the cache), and the not-yet-started remainder was skipped.
var ErrInterrupted = errors.New("harness: sweep interrupted")

// Tunables for the cross-process coordination protocol. Package variables
// rather than constants so the concurrency tests can shrink them; the
// defaults are sized for real sweeps (jobs run milliseconds to minutes).
var (
	// tmpMaxAge guards the startup reaper: an orphaned <hash>.tmp-* file is
	// only deleted once it is old enough that no live writer can still own
	// it (a write is CreateTemp → Write → Rename, microseconds to
	// milliseconds of life for a legitimate temp file).
	tmpMaxAge = time.Hour
	// markerStaleAfter bounds how long a <hash>.inflight advisory marker is
	// trusted: past this age the owning process is presumed crashed and a
	// waiter reclaims the hash. Owners refresh the marker's mtime while the
	// simulation runs, so a healthy long job is never hijacked.
	markerStaleAfter = time.Minute
	// markerRefresh is how often a simulating owner touches its marker.
	markerRefresh = 10 * time.Second
	// markerPoll is how often a cross-process waiter re-checks for the
	// owner's result file.
	markerPoll = 5 * time.Millisecond
)

// Runner executes scenario specs on the exp.ParallelMap worker pool with an
// optional content-addressed disk cache. A Runner is safe for concurrent
// use; Hits/Misses/Coalesced accumulate across RunAll calls.
//
// The Runner is an exactly-once execution core over the spec content hash:
//
//   - within a process, concurrent runs of the same hash coalesce on an
//     in-memory singleflight table — one leader simulates, everyone else
//     waits for its result;
//   - across processes sharing one CacheDir, an advisory <hash>.inflight
//     marker (O_EXCL create) plus the atomic temp-file + rename store means
//     a second process waits for the first one's cache entry instead of
//     simulating the same hash twice.
type Runner struct {
	// CacheDir stores one JSON result file per spec hash; empty disables
	// caching.
	CacheDir string
	// Workers bounds the pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, when set, is invoked (serialized) after every job starts
	// or finishes during RunAll, feeding live sweep progress displays. The
	// callback must be fast; it runs on the worker goroutines under a lock.
	OnProgress func(Progress)
	// Obs, when set, receives operational metrics: cache hits/misses/
	// coalesced counts, job wall-time histograms, live sweep.* gauges, and
	// per-run engine stats (engine events, pool rates, fluid pass split)
	// via the scenario.Sink hook. Nil keeps the whole layer off at the cost
	// of pointer tests — the obs_overhead bench ratio pins that cost at
	// ≤ 1%.
	Obs *obs.Registry
	// Tracer, when set, records spans: RunAll opens a "sweep" root, each
	// job a child with cache-lookup / simulate / cache-store phases. Nil
	// disables tracing.
	Tracer *obs.Tracer

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64

	sinkOnce sync.Once
	obsSink  *obsSink

	initOnce sync.Once
	initErr  error

	flightMu sync.Mutex
	flight   map[string]*flightCall

	// afterLookupMiss, when set, runs between a job's cache miss and its
	// bid for flight leadership: a test seam for the window in which an
	// earlier leader can store its result and leave.
	afterLookupMiss func()
}

// flightCall is one in-flight simulation of a spec hash. The leader closes
// done after res/err are set; waiters block on done and then read them.
type flightCall struct {
	done chan struct{}
	res  *scenario.Result
	err  error
}

// Progress is a point-in-time snapshot of a RunAll sweep.
type Progress struct {
	// Total is the sweep's job count; Done counts successfully finished
	// jobs, of which Cached were served from the disk cache (or coalesced
	// onto another job's simulation). Errored counts jobs that failed;
	// Done + Errored + InFlight never exceeds Total. InFlight jobs are
	// simulating right now.
	Total, Done, Cached, Errored, InFlight int
	// Events totals the engine events of the simulated (non-cached) jobs
	// finished so far; EventsPerSec divides by the wall time since RunAll
	// began, the sweep's aggregate simulation throughput.
	Events       float64
	EventsPerSec float64
}

// progressTracker serializes progress accounting across workers.
type progressTracker struct {
	mu      sync.Mutex
	p       Progress
	started time.Time
	notify  func(Progress)
}

func newProgressTracker(total int, notify func(Progress)) *progressTracker {
	if notify == nil {
		return nil
	}
	return &progressTracker{
		p:       Progress{Total: total},
		started: time.Now(),
		notify:  notify,
	}
}

func (t *progressTracker) start() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.p.InFlight++
	t.emit()
	t.mu.Unlock()
}

func (t *progressTracker) finish(res *scenario.Result, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.p.InFlight--
	if err != nil {
		t.p.Errored++
	} else {
		t.p.Done++
		if res != nil {
			if res.Cached {
				t.p.Cached++
			} else {
				t.p.Events += res.Metrics["engine_events"]
			}
		}
	}
	t.emit()
	t.mu.Unlock()
}

// emit recomputes the throughput and fires the callback (mu held).
func (t *progressTracker) emit() {
	if dt := time.Since(t.started).Seconds(); dt > 0 {
		t.p.EventsPerSec = t.p.Events / dt
	}
	t.notify(t.p)
}

// Stats reports how many jobs were served from cache vs simulated.
func (r *Runner) Stats() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// Coalesced reports how many jobs rode an identical in-flight simulation
// (same spec hash, in this process or another sharing the cache dir)
// instead of simulating or reading a settled cache entry.
func (r *Runner) Coalesced() int64 { return r.coalesced.Load() }

// initCache creates the cache dir and, once per Runner, reaps debris a
// crashed earlier process may have left behind: orphaned .tmp- files (a
// crash between CreateTemp and Rename) and stale .inflight markers (a
// crash mid-simulation). Both are age-guarded so a live concurrent
// writer's files are never touched.
func (r *Runner) initCache() error {
	if r.CacheDir == "" {
		return nil
	}
	r.initOnce.Do(func() {
		if err := os.MkdirAll(r.CacheDir, 0o755); err != nil {
			r.initErr = fmt.Errorf("harness: cache dir: %w", err)
			return
		}
		r.reapDebris()
	})
	return r.initErr
}

// reapDebris deletes aged-out temp files and in-flight markers from the
// cache dir. Errors are ignored: the reaper is hygiene, not correctness —
// a file that cannot be listed or removed today will age out tomorrow.
func (r *Runner) reapDebris() {
	entries, err := os.ReadDir(r.CacheDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var maxAge time.Duration
		switch {
		case strings.Contains(name, ".tmp-"):
			maxAge = tmpMaxAge
		case strings.HasSuffix(name, inflightSuffix):
			maxAge = markerStaleAfter
		default:
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < maxAge {
			continue
		}
		if os.Remove(filepath.Join(r.CacheDir, name)) == nil {
			r.Obs.Counter(MetricCacheReaped).Add(1)
		}
	}
}

// RunAll executes every spec (cache-first) and returns results in spec
// order. The first simulation error aborts; completed jobs remain cached.
func (r *Runner) RunAll(specs []scenario.Spec) ([]*scenario.Result, error) {
	return r.RunAllCtx(context.Background(), specs)
}

// RunAllCtx is RunAll with cooperative cancellation: once ctx is done, no
// new job starts, but every in-flight job runs to completion and writes
// its cache entry — an interrupted sweep never leaves torn state, and a
// re-run resumes from the cache. A cancelled sweep returns the completed
// results (spec order, skipped points absent) and ErrInterrupted.
func (r *Runner) RunAllCtx(ctx context.Context, specs []scenario.Spec) ([]*scenario.Result, error) {
	if err := r.initCache(); err != nil {
		return nil, err
	}
	type out struct {
		res     *scenario.Result
		err     error
		skipped bool
	}
	notify := r.progressNotify()
	tracker := newProgressTracker(len(specs), notify)
	root := r.Tracer.Start("sweep", nil)
	// Oversubscription guard: points running the sharded packet executor
	// multiply the pool's concurrency, so the pool shrinks to keep
	// sweep-level × sim-level workers within the GOMAXPROCS budget.
	workers := exp.PoolWorkers(r.Workers, MaxSimWorkers(specs))
	outs := exp.ParallelMap(specs, workers, func(sp scenario.Spec) out {
		if ctx.Err() != nil {
			return out{skipped: true}
		}
		tracker.start()
		res, err := r.runOne(sp, root)
		tracker.finish(res, err)
		return out{res: res, err: err}
	})
	root.End()
	results := make([]*scenario.Result, 0, len(outs))
	interrupted := false
	for _, o := range outs {
		if o.skipped {
			interrupted = true
			continue
		}
		if o.err != nil {
			return nil, o.err
		}
		results = append(results, o.res)
	}
	if interrupted {
		return results, ErrInterrupted
	}
	return results, nil
}

// progressNotify composes the caller's OnProgress with the sweep.* gauge
// mirror; nil when neither consumer exists so the tracker stays off.
func (r *Runner) progressNotify() func(Progress) {
	if r.Obs == nil {
		return r.OnProgress
	}
	reg, cb := r.Obs, r.OnProgress
	return func(p Progress) {
		observeProgress(reg, p)
		if cb != nil {
			cb(p)
		}
	}
}

// Run executes one spec through the same cache path as RunAll.
func (r *Runner) Run(sp scenario.Spec) (*scenario.Result, error) {
	return r.RunUnder(sp, nil)
}

// RunUnder is Run with the job span parented under root — the hook a
// long-running server uses to group many independently submitted jobs
// under one sweep span. A nil root (or nil Tracer) is Run.
func (r *Runner) RunUnder(sp scenario.Spec, root *obs.Span) (*scenario.Result, error) {
	if err := r.initCache(); err != nil {
		return nil, err
	}
	return r.runOne(sp, root)
}

// runOne executes one job end to end and settles the shared accounting:
// exactly one of jobs_done / jobs_errored increments, and job.wall_ms
// observes every outcome — simulated, cached, coalesced, or errored — so
// the histogram covers the whole sweep rather than just the misses.
func (r *Runner) runOne(sp scenario.Spec, root *obs.Span) (*scenario.Result, error) {
	started := time.Now()
	// Validate here, before the cache lookup, and only here: a spec that
	// today's rules reject must not be served from a cache written under
	// yesterday's, and scenario.RunWithSink runs validated specs as given.
	if err := sp.Validate(); err != nil {
		r.Obs.Counter(MetricJobsErrored).Add(1)
		timeHist(r.Obs, MetricJobWallMs, started)
		return nil, err
	}
	hash := sp.Hash()
	job := r.jobSpan(sp, hash, root)
	defer job.End()
	res, err := r.runHashed(sp, hash, job)
	timeHist(r.Obs, MetricJobWallMs, started)
	if err != nil {
		job.SetAttr("outcome", "error")
		r.Obs.Counter(MetricJobsErrored).Add(1)
		return nil, err
	}
	r.Obs.Counter(MetricJobsDone).Add(1)
	return res, nil
}

// runHashed serves one validated, hashed job: cache hit, coalesce onto an
// identical in-flight job, or become the leader and simulate.
func (r *Runner) runHashed(sp scenario.Spec, hash string, job *obs.Span) (*scenario.Result, error) {
	lookup := r.Tracer.Start("cache-lookup", job)
	res, ok := r.load(hash)
	lookup.End()
	if ok {
		return r.adoptHit(sp, res, job), nil
	}
	if r.afterLookupMiss != nil {
		r.afterLookupMiss()
	}
	// Singleflight: exactly one goroutine per hash proceeds past here at a
	// time; the rest wait on the leader's call and share its outcome. This
	// is what makes N identical specs in one sweep — or concurrent Run
	// calls from many server clients — exactly one simulation.
	r.flightMu.Lock()
	if c, ok := r.flight[hash]; ok {
		r.flightMu.Unlock()
		wait := r.Tracer.Start("coalesce-wait", job)
		<-c.done
		wait.End()
		return r.adoptCoalesced(sp, hash, c, job)
	}
	c := &flightCall{done: make(chan struct{})}
	if r.flight == nil {
		r.flight = map[string]*flightCall{}
	}
	r.flight[hash] = c
	r.flightMu.Unlock()

	res, err := r.leaderRun(sp, hash, job)

	r.flightMu.Lock()
	delete(r.flight, hash)
	r.flightMu.Unlock()
	c.res, c.err = res, err
	close(c.done)
	return res, err
}

// adoptHit turns a cache entry into this job's result, counted as a hit.
func (r *Runner) adoptHit(sp scenario.Spec, res *scenario.Result, job *obs.Span) *scenario.Result {
	// The cache key ignores Name; restore the caller's label.
	res.Spec.Name = sp.Name
	r.hits.Add(1)
	r.Obs.Counter(MetricCacheHits).Add(1)
	job.SetAttr("outcome", "cached")
	return res
}

// adoptCoalesced turns a settled in-flight call into this job's result.
// Waiters re-load from the cache when there is one — an independent copy,
// since each caller may carry a different Name — and otherwise take a
// shallow copy of the leader's result (the metric map is never mutated).
func (r *Runner) adoptCoalesced(sp scenario.Spec, hash string, c *flightCall, job *obs.Span) (*scenario.Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	r.coalesced.Add(1)
	r.Obs.Counter(MetricCacheCoalesced).Add(1)
	job.SetAttr("outcome", "coalesced")
	if res, ok := r.load(hash); ok {
		res.Spec.Name = sp.Name
		return res, nil
	}
	res := *c.res
	res.Spec.Name = sp.Name
	res.Cached = true
	return &res, nil
}

// leaderRun is the singleflight winner's path: claim the cross-process
// in-flight marker (or adopt another process's result), simulate, and
// store. The simulated result is stored before the marker is released, so
// a waiter that sees the marker vanish always finds the cache entry.
func (r *Runner) leaderRun(sp scenario.Spec, hash string, job *obs.Span) (*scenario.Result, error) {
	if r.CacheDir != "" {
		res, owned, err := r.claimHash(sp, hash, job)
		if err != nil {
			return nil, err
		}
		if !owned {
			// Another process simulated this hash while we waited; res is
			// its cache entry.
			return res, nil
		}
		defer os.Remove(r.markerPath(hash))
		// An earlier leader may have stored this hash and left the flight
		// table between our lookup miss and our leadership: look again.
		if res, ok := r.load(hash); ok {
			return r.adoptHit(sp, res, job), nil
		}
	}
	stopRefresh := r.refreshMarker(hash)
	simulate := r.Tracer.Start("simulate", job)
	res, err := scenario.RunWithSink(sp, r.sink())
	simulate.End()
	stopRefresh()
	if err != nil {
		return nil, err
	}
	r.misses.Add(1)
	r.Obs.Counter(MetricCacheMisses).Add(1)
	store := r.Tracer.Start("cache-store", job)
	serr := r.store(hash, res)
	store.End()
	if serr != nil {
		return nil, serr
	}
	job.SetAttr("outcome", "simulated")
	return res, nil
}

// inflightSuffix names the advisory cross-process marker: its presence
// means some process is simulating the hash right now. Advisory only —
// correctness comes from the atomic rename; the marker merely prevents
// duplicate work between processes.
const inflightSuffix = ".inflight"

func (r *Runner) markerPath(hash string) string {
	return filepath.Join(r.CacheDir, hash+inflightSuffix)
}

// claimHash acquires the cross-process in-flight marker for hash, or waits
// out another process's claim. Returns owned=true when this process must
// simulate; otherwise the other process's result (served from the cache it
// wrote) with owned=false.
func (r *Runner) claimHash(sp scenario.Spec, hash string, job *obs.Span) (*scenario.Result, bool, error) {
	path := r.markerPath(hash)
	for {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			// Owner identity, for humans inspecting a stuck cache dir.
			fmt.Fprintf(f, "pid %d\n", os.Getpid())
			f.Close()
			return nil, true, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, false, fmt.Errorf("harness: in-flight marker: %w", err)
		}
		wait := r.Tracer.Start("marker-wait", job)
		res, ok := r.awaitMarker(path, hash)
		wait.End()
		if ok {
			res.Spec.Name = sp.Name
			r.coalesced.Add(1)
			r.Obs.Counter(MetricCacheCoalesced).Add(1)
			job.SetAttr("outcome", "coalesced")
			return res, false, nil
		}
		// The marker went stale or vanished without a result (owner
		// crashed); loop and contend for ownership again.
	}
}

// awaitMarker polls for the marker owner's result file. It returns false
// when the marker disappears or goes stale without a result appearing —
// the caller then re-contends for ownership.
func (r *Runner) awaitMarker(path, hash string) (*scenario.Result, bool) {
	for {
		if res, ok := r.load(hash); ok {
			return res, true
		}
		st, err := os.Stat(path)
		if err != nil {
			// Marker gone: the owner finished (result stored before the
			// marker was removed — check once more) or errored out.
			res, ok := r.load(hash)
			return res, ok
		}
		if time.Since(st.ModTime()) > markerStaleAfter {
			// Presumed-crashed owner; reclaim. Remove is idempotent across
			// racing waiters, and the O_EXCL create arbitrates who wins.
			os.Remove(path)
			return nil, false
		}
		time.Sleep(markerPoll)
	}
}

// refreshMarker keeps the owner's marker mtime fresh while a long
// simulation runs, so healthy jobs outlive markerStaleAfter. Returns a
// stop func; a no-op without a cache dir.
func (r *Runner) refreshMarker(hash string) func() {
	if r.CacheDir == "" {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		path := r.markerPath(hash)
		t := time.NewTicker(markerRefresh)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				os.Chtimes(path, now, now)
			}
		}
	}()
	return func() { close(done) }
}

// load reads a cached result; any unreadable or mismatched file is treated
// as a miss (and re-simulated), never an error. So is an entry with a
// metric the current vocabulary lacks: an older tree cached host-dependent
// figures under the same spec hash, and a hit must not replay them.
func (r *Runner) load(hash string) (*scenario.Result, bool) {
	if r.CacheDir == "" {
		return nil, false
	}
	data, err := os.ReadFile(r.cachePath(hash))
	if err != nil {
		return nil, false
	}
	var res scenario.Result
	if json.Unmarshal(data, &res) != nil || res.Hash != hash || res.Metrics == nil {
		return nil, false
	}
	for k := range res.Metrics {
		if !scenario.IsKnownMetric(k) {
			return nil, false
		}
	}
	res.Cached = true
	return &res, true
}

// store writes the result atomically (temp file + rename) so a crashed or
// concurrent sweep never leaves a truncated cache entry. A .tmp- file
// orphaned by a crash between CreateTemp and Rename is reclaimed by the
// next Runner's startup reaper (see initCache).
func (r *Runner) store(hash string, res *scenario.Result) error {
	if r.CacheDir == "" {
		return nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encode result: %w", err)
	}
	tmp, err := os.CreateTemp(r.CacheDir, hash+".tmp-")
	if err != nil {
		return fmt.Errorf("harness: cache write: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if err := errors.Join(werr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), r.cachePath(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	return nil
}

func (r *Runner) cachePath(hash string) string {
	return filepath.Join(r.CacheDir, hash+".json")
}
