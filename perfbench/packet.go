package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// fctConfig is one Fig 14 point on the packet engine: a k-ary fat-tree,
// WebSearch Poisson arrivals at 50% access load over horizon, FNCC.
type fctConfig struct {
	k       int
	horizon sim.Time
	seed    int64
	workers int
}

// fctPoint is the configuration the fct-k8-* workloads run: the paper's
// k=8 fat-tree (128 hosts) over a 300 µs arrival window, or a k=4, 60 µs
// point for the smoke test.
func fctPoint(seed int64, workers int, tiny bool) fctConfig {
	if tiny {
		return fctConfig{k: 4, horizon: 60 * sim.Microsecond, seed: seed, workers: workers}
	}
	return fctConfig{k: 8, horizon: 300 * sim.Microsecond, seed: seed, workers: workers}
}

// drainFactor bounds the drain after the arrival window. RunToCompletion
// returns as soon as every flow has finished, so the bound only matters if
// a flow stalls; it is wide enough that a 30 MB WebSearch flow sharing its
// path still completes, which the completed == generated check requires.
const drainFactor = 60

const (
	linkRateBps = 100e9
	linkDelay   = 1500 * sim.Nanosecond
)

// fctOp is one packet simulation, timed call by call from outside.
type fctOp struct {
	timed
	build, generate, install time.Duration // set-up: before the first event
	run, collect             time.Duration // simulation: first event to metrics
	runCPU                   time.Duration // process CPU during run
	flows                    int
	events                   uint64
	eventReuse, poolHit      float64
	shard                    netsim.ShardStats
}

// traceSeed draws the WebSearch trace every workload offers: the
// registry's default seed, so sizes and arrival times match the registry's
// Fig 14 point. A 150-flow WebSearch draw offers ±20% more or fewer bytes
// from one seed to the next, which would swamp any bound on host time.
const traceSeed = 1

// placeFlows generates the WebSearch trace for the given hosts and lets the
// seed place it: a seeded permutation of the hosts decides who sends and
// receives each flow. Seeds change paths and contention but offer the same
// bytes at the same times.
func placeFlows(hosts int, horizon sim.Time, seed int64) ([]workload.FlowSpec, error) {
	cdf, ok := workload.ByName("websearch")
	if !ok {
		return nil, fmt.Errorf("websearch CDF missing")
	}
	flows, err := workload.Generate(workload.GenConfig{
		Hosts: hosts, AccessBps: linkRateBps, Load: 0.5, CDF: cdf,
		Horizon: horizon, Seed: traceSeed, FirstID: 1,
	})
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(seed)).Perm(hosts)
	for i := range flows {
		flows[i].SrcHost, flows[i].DstHost = perm[flows[i].SrcHost], perm[flows[i].DstHost]
	}
	return flows, nil
}

// simulateFCT runs one point through the public calls a user of the packet
// engine makes, timing each. tr, when non-nil, records a span per call.
func simulateFCT(c fctConfig, tr *obs.Tracer) (*fctOp, error) {
	op := &fctOp{}
	alloc0 := allocBytes()
	root := tr.Start("fct", nil)
	defer root.End()

	scheme, err := exp.NewScheme(exp.SchemeFNCC)
	if err != nil {
		return nil, err
	}
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = c.seed
	t := time.Now()
	sp := tr.Start("topo.BuildFatTree", root)
	ft, err := topo.BuildFatTree(ncfg, scheme, topo.FatTreeOpts{
		K: c.k, RateBps: linkRateBps, Delay: linkDelay, Workers: c.workers})
	sp.End()
	if err != nil {
		return nil, err
	}
	op.build = lap(&t)

	sp = tr.Start("workload.Generate", root)
	flows, err := placeFlows(len(ft.Hosts), c.horizon, c.seed)
	sp.End()
	if err != nil {
		return nil, err
	}
	op.generate = lap(&t)
	op.flows = len(flows)

	sp = tr.Start("FatTree.AddFlow", root)
	for _, f := range flows {
		ft.AddFlow(f.ID, f.SrcHost, f.DstHost, f.SizeBytes, f.Start)
	}
	sp.End()
	op.install = lap(&t)

	cpu0 := processCPU()
	sp = tr.Start("Network.RunToCompletion", root)
	ft.Net.RunToCompletion(c.horizon * drainFactor)
	sp.End()
	op.runCPU = processCPU() - cpu0
	op.run = lap(&t)

	sp = tr.Start("FCTCollector.SlowdownDist", root)
	op.out = fctOutput(ft, flows, c.horizon)
	sp.End()
	op.collect = lap(&t)

	es := ft.Net.TotalEngineStats()
	op.events = es.Processed
	op.eventReuse = es.ReuseRate()
	op.poolHit = ft.Net.TotalPoolStats().HitRate()
	op.shard = ft.Net.ShardStats()
	op.allocBytes = allocBytes() - alloc0
	op.setupDur = op.build + op.generate + op.install
	op.simDur = op.run + op.collect
	return op, nil
}

// fctOutput computes the Fig 14 model output: fabric counters plus the
// slowdown distribution overall and per WebSearch flow-size bucket.
func fctOutput(ft *topo.FatTree, flows []workload.FlowSpec, horizon sim.Time) map[string]float64 {
	col := ft.Net.FCT
	m := map[string]float64{
		"completed":    float64(col.N()),
		"generated":    float64(len(flows)),
		"offered_load": workload.OfferedLoad(flows, len(ft.Hosts), linkRateBps, horizon),
		"pause_frames": float64(ft.Net.PauseFrames.N),
		"drops":        float64(ft.Net.Drops.N),
	}
	slowdowns(m, "", col.SlowdownDist(0, math.MaxInt64))
	for _, b := range exp.WebSearchBuckets() {
		slowdowns(m, b.Label+"_", col.SlowdownDist(b.LoByte, b.HiByte))
	}
	return m
}

func slowdowns(m map[string]float64, prefix string, d *metrics.Dist) {
	if d.N() == 0 {
		return
	}
	m["slowdown_"+prefix+"avg"] = d.Mean()
	m["slowdown_"+prefix+"median"] = d.Median()
	m["slowdown_"+prefix+"p95"] = d.P95()
	m["slowdown_"+prefix+"p99"] = d.P99()
}

// lap returns the time since *t and resets *t to now.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// runFCTWorkload runs the Fig 14 point back to back on the serial or the
// sharded packet engine.
func runFCTWorkload(o opts, sharded bool) (*result, error) {
	workers := 1
	if sharded {
		workers = shardWorkers()
	}
	point := fctPoint(o.seed, workers, o.tiny)
	serial := point
	serial.workers = 1
	res := &result{}

	// Every operation runs the same input. The sharded engine must
	// reproduce the serial engine's output bit for bit, so its reference is
	// a serial run of the same point.
	refs := map[int64]map[string]float64{}
	if sharded {
		op, err := simulateFCT(serial, nil)
		if err != nil {
			return nil, err
		}
		checkOutput(o, res, "serial reference", o.seed, refs, op.out)
	}
	kinds := 2
	if sharded {
		kinds = 3
	}
	tr, prof, cycle := tracing(o, kinds)
	fixed := func(int) int64 { return o.seed }
	ops, err := simLoop(o, res, cycle, tr, prof, refs, fixed, func(kind int, _ int64, t *obs.Tracer) (*fctOp, error) {
		if kind == opSerial {
			return simulateFCT(serial, t)
		}
		return simulateFCT(point, t)
	})
	if err != nil || len(ops[opMain]) == 0 {
		return res, err
	}
	if !o.trace {
		res.metrics = simE2E(ops[opMain])
		return res, nil
	}

	m := layerZero()
	simLayers(m, ops, prof)
	last := ops[opMain][len(ops[opMain])-1]
	var busy, plain, serialSims []float64
	for _, op := range ops[opMain] {
		busy = append(busy, op.runCPU.Seconds()/(op.run.Seconds()*float64(workers)))
		plain = append(plain, op.simDur.Seconds())
	}
	for _, op := range ops[opSerial] {
		serialSims = append(serialSims, op.simDur.Seconds())
	}
	m["netsim.run_s"] = spanMedian(tr, "Network.RunToCompletion")
	m["topo.build_s"] = spanMedian(tr, "topo.BuildFatTree")
	m["workload.generate_s"] = spanMedian(tr, "workload.Generate")
	m["metrics.collect_s"] = spanMedian(tr, "FCTCollector.SlowdownDist")
	m["workload.flows"] = float64(last.flows)
	m["sim.events"] = float64(last.events)
	m["sim.ns_per_event"] = 1e9 * ratio(m["netsim.run_s"], float64(last.events))
	m["sim.event_reuse_rate"] = last.eventReuse
	m["packet.pool_hit_rate"] = last.poolHit
	m["shard.windows"] = float64(last.shard.Windows)
	m["shard.messages"] = float64(last.shard.Messages)
	m["shard.workers"] = float64(workers)
	m["shard.cpu_busy_frac"] = median(busy)
	if sharded {
		m["shard.serial_wall_s"] = median(serialSims)
		m["shard.sharded_wall_s"] = median(plain)
		m["shard.parallel_speedup"] = ratio(median(serialSims), median(plain))
	} else {
		m["shard.serial_wall_s"] = median(plain)
	}
	res.metrics = m
	return res, writeSpans(o, tr)
}
