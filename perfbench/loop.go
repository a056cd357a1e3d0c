package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// Operation kinds of the simulation workloads. An untraced run does only
// opMain; a traced run rotates through opMain, opTraced and, on the sharded
// workload, opSerial, so the tracing overhead and the parallel speedup are
// ratios of operations interleaved in one process.
const (
	opMain = iota
	opTraced
	opSerial
)

// timed is what every simulation operation reports, however its layers
// are timed.
type timed struct {
	setupDur   time.Duration // host time before the first simulated event
	simDur     time.Duration // first event to computed metrics
	allocBytes uint64        // heap bytes allocated by the operation
	out        map[string]float64
}

func (t *timed) base() *timed { return t }

type simOp interface{ base() *timed }

// simLoop runs a simulation workload's closed loop: operations back to
// back until the budget is spent and every kind in the cycle
// has run at least three times. The operations of one cycle share the
// input seed roundSeed gives them. Each output is checked against the
// first output made from the same input seed (refs may hold serial
// references) and, at the default seed, against the pinned digest.
func simLoop[T simOp](o opts, res *result, cycle int, tr *obs.Tracer, prof *cpuProfile,
	refs map[int64]map[string]float64, roundSeed func(round int) int64,
	do func(kind int, seed int64, tr *obs.Tracer) (T, error)) ([3][]T, error) {
	var ops [3][]T
	start := time.Now()
	for i := 0; i < 3*cycle || time.Since(start) < o.budget; i++ {
		kind, seed := i%cycle, roundSeed(i/cycle)
		op, err := measure(kind, prof, func() (T, error) {
			if kind == opTraced {
				return do(kind, seed, tr)
			}
			return do(kind, seed, nil)
		})
		if err != nil {
			res.check("simulation", []string{err.Error()})
			continue
		}
		checkOutput(o, res, "simulation", seed, refs, op.base().out)
		ops[kind] = append(ops[kind], op)
	}
	if prof != nil {
		return ops, prof.err
	}
	return ops, nil
}

// measure runs one operation after a GC, so the previous operation's
// garbage is not collected on its time, and under the CPU profile when it
// is a traced operation.
func measure[T any](kind int, prof *cpuProfile, fn func() (T, error)) (T, error) {
	runtime.GC()
	if kind != opTraced {
		return fn()
	}
	prof.start()
	defer prof.stop()
	return fn()
}

// checkOutput checks one simulation's output made from the input seed:
// the flow checks, equality with refs[seed] (which it sets when absent)
// and the pinned digest.
func checkOutput(o opts, res *result, label string, seed int64, refs map[int64]map[string]float64, out map[string]float64) {
	problems := checkFlows(out)
	var b strings.Builder
	digestLines(&b, "sim", out)
	d := digest(b.String())
	if ref, ok := refs[seed]; !ok {
		refs[seed] = out
		if res.digest == "" {
			res.digest = d
		}
	} else if diff := sameBits(ref, out); diff != "" {
		problems = append(problems, "differs from the reference output at "+diff)
	}
	res.check(label, append(problems, o.digestProblem(seed, d)...))
}

// simE2E computes the end-to-end metrics of a simulation workload from its
// untraced operations.
func simE2E[T simOp](ops []T) map[string]float64 {
	var setups, sims, lat []time.Duration
	var total time.Duration
	for _, op := range ops {
		b := op.base()
		setups = append(setups, b.setupDur)
		sims = append(sims, b.simDur)
		lat = append(lat, b.setupDur+b.simDur)
		total += b.setupDur + b.simDur
	}
	return map[string]float64{
		"setup_s":       medianDur(setups),
		"sim_wall_s":    medianDur(sims),
		"peak_rss_mb":   peakRSSMB(),
		"points_per_s":  float64(len(ops)) / total.Seconds(),
		"first_point_s": medianDur(lat),
		// A direct caller has no result cache: asking again for a point it
		// has computed before costs a whole operation.
		"cached_point_ms": 1000 * medianDur(lat),
	}
}

// simLayers fills the per-layer metrics every simulation workload shares.
func simLayers[T simOp](m map[string]float64, ops [3][]T, prof *cpuProfile) {
	var allocs, plain, traced []float64
	for _, op := range ops[opMain] {
		allocs = append(allocs, float64(op.base().allocBytes)/1e6)
		plain = append(plain, op.base().simDur.Seconds())
	}
	for _, op := range ops[opTraced] {
		traced = append(traced, op.base().simDur.Seconds())
	}
	m["runtime.alloc_mb_per_sim"] = median(allocs)
	m["trace.overhead"] = ratio(median(traced), median(plain))
	addProfile(m, prof)
}

// tracing returns a traced run's span tracer and CPU profile (nil, nil
// when untraced) and the length of its operation cycle.
func tracing(o opts, kinds int) (*obs.Tracer, *cpuProfile, int) {
	if !o.trace {
		return nil, nil, 1
	}
	return obs.NewTracer(), newCPUProfile(), kinds
}
