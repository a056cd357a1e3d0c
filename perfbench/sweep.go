package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// warmPasses is how many times each cycle resubmits its sweep once the
// cold pass has filled the cache.
const warmPasses = 3

// sweepSpecs is the served sweep: the chain scenarios (micro, hop-first,
// hop-last, incast with a telemetry block, fairness) under FNCC, HPCC and
// DCQCN, plus two seeded fct-websearch-fluid points per scheme. tiny
// shortens every point for the smoke test.
func sweepSpecs(seed int64, tiny bool) ([]scenario.Spec, error) {
	points := []struct {
		name string
		seed int64 // 0 keeps the registry's seed
	}{{"micro", 0}, {"hop-first", 0}, {"hop-last", 0}, {"incast", 0}, {"fairness", 0},
		{"fct-websearch-fluid", seed}, {"fct-websearch-fluid", seed + 1}}
	var specs []scenario.Spec
	for _, scheme := range []string{"FNCC", "HPCC", "DCQCN"} {
		for _, p := range points {
			sp, err := scenario.Lookup(p.name)
			if err != nil {
				return nil, err
			}
			sp.Scheme = scheme
			if p.seed != 0 {
				sp.Seed = p.seed
			}
			if sp.Kind == scenario.KindIncast {
				sp.Telemetry = &scenario.TelemetrySpec{IntervalUs: 20, Probes: sp.SupportedProbes()}
			}
			if tiny {
				shrink(&sp)
			}
			specs = append(specs, sp)
		}
	}
	return specs, nil
}

// shrink cuts a spec down to a few milliseconds of host time.
func shrink(sp *scenario.Spec) {
	switch sp.Kind {
	case scenario.KindFairness:
		sp.Workload.StaggerUs = 100
	case scenario.KindIncast:
		sp.Workload.Fanout, sp.Workload.FlowBytes = 4, 64_000
		sp.DurationUs = 5_000
	case scenario.KindFCT:
		sp.Topo.K, sp.DurationUs = 4, 200
	default:
		sp.DurationUs = 200
	}
}

// sweepCycle is one served-sweep cycle: a fresh server over a fresh cache
// directory, one cold pass and warmPasses cached passes.
type sweepCycle struct {
	setup      time.Duration
	requests   []time.Duration // POST /sweeps round trips
	cold       passResult
	warm       []passResult
	spans      []obs.Span // the server's job spans
	hits, miss int64
	coalesced  int64
	errored    int64
	telemetry  string // digest of the incast points' telemetry output
	workers    int
}

// passResult is one submitted sweep as the client saw it.
type passResult struct {
	wall, first time.Duration
	points      map[int]sweepd.Point
	received    map[int]time.Time // when each point's line arrived
}

// serveCycle runs one cycle. btr, when non-nil, records the client-side
// spans.
func serveCycle(o opts, specs []scenario.Spec, btr *obs.Tracer) (*sweepCycle, error) {
	c := &sweepCycle{workers: runtime.NumCPU()}
	root := btr.Start("sweep-cycle", nil)
	defer root.End()

	t := time.Now()
	sp := btr.Start("sweepd.New", root)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.outDir, "sweep-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg, tr := obs.NewRegistry(), obs.NewTracer()
	runner := &harness.Runner{CacheDir: dir, Obs: reg, Tracer: tr}
	srv, err := sweepd.New(sweepd.Config{Runner: runner, Workers: c.workers, Reg: reg, Tracer: tr})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{}}
	base := "http://" + ln.Addr().String()
	sp.End()
	c.setup = time.Since(t)

	passErr := func() error {
		sp := btr.Start("cold-pass", root)
		c.cold, err = submitSweep(client, base, specs, &c.requests)
		sp.End()
		if err != nil {
			return err
		}
		for i := 0; i < warmPasses; i++ {
			sp := btr.Start("warm-pass", root)
			p, err := submitSweep(client, base, specs, &c.requests)
			sp.End()
			if err != nil {
				return err
			}
			c.warm = append(c.warm, p)
		}
		return nil
	}()

	drainErr := srv.Drain(0)
	shutErr := hs.Shutdown(context.Background())
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	client.CloseIdleConnections()
	if err := errors.Join(passErr, drainErr, shutErr); err != nil {
		return nil, err
	}
	c.hits, c.miss = runner.Stats()
	c.coalesced = runner.Coalesced()
	c.errored = reg.Counter(harness.MetricJobsErrored).Value()
	c.spans = tr.Spans()
	c.telemetry, err = telemetryDigest(dir, specs)
	return c, err
}

// submitSweep posts the sweep and reads its NDJSON result stream to the
// end, timing the request, the first point and the whole pass.
func submitSweep(client *http.Client, base string, specs []scenario.Spec, requests *[]time.Duration) (passResult, error) {
	p := passResult{points: map[int]sweepd.Point{}, received: map[int]time.Time{}}
	body, err := json.Marshal(sweepd.SubmitRequest{Specs: specs})
	if err != nil {
		return p, err
	}
	start := time.Now()
	resp, err := client.Post(base+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return p, fmt.Errorf("submit sweep: %w", err)
	}
	var ack sweepd.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	*requests = append(*requests, time.Since(start))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return p, fmt.Errorf("submit sweep: status %d: %v", resp.StatusCode, err)
	}
	resp, err = client.Get(base + ack.Results)
	if err != nil {
		return p, fmt.Errorf("stream results: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		now := time.Now()
		if len(p.points) == 0 {
			p.first = now.Sub(start)
		}
		var pt sweepd.Point
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			return p, fmt.Errorf("stream results: %w", err)
		}
		p.points[pt.Index] = pt
		p.received[pt.Index] = now
	}
	p.wall = time.Since(start)
	if err := sc.Err(); err != nil {
		return p, fmt.Errorf("stream results: %w", err)
	}
	return p, nil
}

// telemetryDigest reads every incast point's result, telemetry included,
// back through a separate Runner on the cycle's cache directory (all cache
// hits) and hashes the telemetry output.
func telemetryDigest(dir string, specs []scenario.Spec) (string, error) {
	r := &harness.Runner{CacheDir: dir}
	var b strings.Builder
	for i, sp := range specs {
		if sp.Telemetry == nil {
			continue
		}
		res, err := r.Run(sp)
		if err != nil {
			return "", err
		}
		if !res.Cached || res.Telemetry == nil {
			return "", fmt.Errorf("point %d: telemetry not served from the cache", i)
		}
		enc, err := json.Marshal(res.Telemetry)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%d %s\n", i, enc)
	}
	return digest(b.String()), nil
}

// checkCycle checks every point of a cycle: no point errored, FCT points
// completed all flows with slowdowns of at least 1, every warm pass equals
// the cold pass bit for bit, and at the default seed the cold pass matches
// the pinned digest. It returns the cold pass's digest.
func checkCycle(o opts, res *result, specs []scenario.Spec, c *sweepCycle) string {
	cold := make([]map[string]float64, len(specs))
	for i := range specs {
		if pt, ok := c.cold.points[i]; ok && pt.Row != nil {
			cold[i] = modelOutput(pt.Row.Metrics)
		}
	}
	var b strings.Builder
	for i, m := range cold {
		digestLines(&b, fmt.Sprint(i), m)
	}
	b.WriteString(c.telemetry)
	d := digest(b.String())
	pinned := o.digestProblem(o.seed, d)
	for i := range specs {
		res.check(fmt.Sprintf("cold point %d", i), append(pointProblems(c.cold, i, cold[i]), pinned...))
		for _, w := range c.warm {
			problems := pointProblems(w, i, nil)
			if pt, ok := w.points[i]; ok && pt.Row != nil && cold[i] != nil {
				if diff := sameBits(cold[i], modelOutput(pt.Row.Metrics)); diff != "" {
					problems = append(problems, "warm pass differs from cold at "+diff)
				}
				if !pt.Cached {
					problems = append(problems, "warm point was not served from the cache")
				}
			}
			res.check(fmt.Sprintf("warm point %d", i), problems)
		}
	}
	return d
}

// pointProblems checks that a pass delivered point i with a result and,
// given its model output, that the output passes the flow checks.
func pointProblems(p passResult, i int, out map[string]float64) []string {
	pt, ok := p.points[i]
	switch {
	case !ok:
		return []string{"missing from the stream"}
	case pt.Error != "":
		return []string{pt.Error}
	case pt.Skipped || pt.Row == nil:
		return []string{"skipped"}
	}
	return checkFlows(out)
}

// runSweepWorkload repeats served-sweep cycles until the budget is spent.
func runSweepWorkload(o opts) (*result, error) {
	specs, err := sweepSpecs(o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	res := &result{}
	btr, prof, cycleLen := tracing(o, 2)
	var cycles [2][]*sweepCycle
	start := time.Now()
	for i := 0; i < 3*cycleLen || time.Since(start) < o.budget; i++ {
		kind := i % cycleLen
		c, err := measure(kind, prof, func() (*sweepCycle, error) {
			if kind == opTraced {
				return serveCycle(o, specs, btr)
			}
			return serveCycle(o, specs, nil)
		})
		if err != nil {
			// Every point of the cycle's passes counts as failed.
			for j := 0; j < len(specs)*(1+warmPasses); j++ {
				res.check("sweep cycle", []string{err.Error()})
			}
			continue
		}
		d := checkCycle(o, res, specs, c)
		if res.digest == "" {
			res.digest = d
		}
		cycles[kind] = append(cycles[kind], c)
	}

	if prof != nil && prof.err != nil {
		return nil, prof.err
	}
	plain := cycles[opMain]
	if len(plain) == 0 {
		return res, nil
	}
	if !o.trace {
		var setups, firsts []time.Duration
		var rates, cached []float64
		for _, c := range plain {
			setups = append(setups, c.setup)
			firsts = append(firsts, c.cold.first)
			rates = append(rates, float64(len(specs))/c.cold.wall.Seconds())
			for _, w := range c.warm {
				cached = append(cached, 1000*w.wall.Seconds()/float64(len(specs)))
			}
		}
		res.metrics = map[string]float64{
			"setup_s":         medianDur(setups),
			"sim_wall_s":      simulateMedian(plain),
			"peak_rss_mb":     peakRSSMB(),
			"points_per_s":    median(rates),
			"first_point_s":   medianDur(firsts),
			"cached_point_ms": median(cached),
		}
		return res, nil
	}

	m := layerZero()
	last := plain[len(plain)-1]
	m["harness.cache_hits"] = float64(last.hits)
	m["harness.cache_misses"] = float64(last.miss)
	m["harness.cache_coalesced"] = float64(last.coalesced)
	m["harness.jobs_errored"] = float64(last.errored)
	index := map[string]int{}
	for i, sp := range specs {
		index[sp.Hash()] = i
	}
	var lookups, stores, busy, requests, lags []float64
	for _, c := range plain {
		var jobs time.Duration
		coldIDs := map[uint64]bool{}
		for _, s := range c.spans {
			switch s.Name {
			case "cache-lookup":
				lookups = append(lookups, float64(s.DurNs)/1e6)
			case "cache-store":
				stores = append(stores, float64(s.DurNs)/1e6)
			case "simulate":
				coldIDs[s.Parent] = true
			}
		}
		for _, s := range c.spans {
			if s.Name != "job" || !coldIDs[s.ID] {
				continue
			}
			jobs += time.Duration(s.DurNs)
			end := time.Unix(0, s.StartUnixNs+s.DurNs)
			if i, ok := index[s.Attrs["hash"]]; ok {
				lags = append(lags, float64(c.cold.received[i].Sub(end).Nanoseconds())/1e6)
			}
		}
		busy = append(busy, jobs.Seconds()/(c.cold.wall.Seconds()*float64(c.workers)))
		for _, r := range c.requests {
			requests = append(requests, float64(r.Nanoseconds())/1e6)
		}
	}
	m["harness.lookup_ms"] = median(lookups)
	m["harness.store_ms"] = median(stores)
	m["harness.pool_busy_frac"] = median(busy)
	m["sweepd.request_ms"] = median(requests)
	m["sweepd.stream_lag_ms"] = median(lags)
	var events, fluidEvents, samples float64
	for i, sp := range specs {
		row := last.cold.points[i].Row
		if row == nil {
			continue
		}
		if sp.BackendName() == scenario.BackendFluid {
			fluidEvents += row.Metrics["engine_events"]
		} else {
			events += row.Metrics["engine_events"]
		}
		samples += row.Metrics["telemetry_samples"]
	}
	m["sim.events"] = events
	m["fluid.events"] = fluidEvents
	m["telemetry.samples"] = samples
	m["trace.overhead"] = ratio(simulateMedian(cycles[opTraced]), simulateMedian(plain))
	addProfile(m, prof)
	res.metrics = m
	return res, writeSpans(o, btr)
}

// simulateMedian is the median duration, in seconds, of the server's
// "simulate" spans over the cycles' cold passes: host time per simulated
// point.
func simulateMedian(cycles []*sweepCycle) float64 {
	var xs []float64
	for _, c := range cycles {
		for _, s := range c.spans {
			if s.Name == "simulate" {
				xs = append(xs, float64(s.DurNs)/1e9)
			}
		}
	}
	return median(xs)
}
