package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fluidPoint is the fct-websearch-fluid-k16 registry spec: a k=16 fat-tree
// (1,024 hosts), WebSearch at 50% load over 2 ms, FNCC's convergence model;
// k=4 over 100 µs for the smoke test.
func fluidPoint(seed int64, tiny bool) fctConfig {
	if tiny {
		return fctConfig{k: 4, horizon: 100 * sim.Microsecond, seed: seed}
	}
	return fctConfig{k: 16, horizon: 2000 * sim.Microsecond, seed: seed}
}

// fluidOp is one fluid simulation, timed call by call from outside.
type fluidOp struct {
	timed
	flows int
	stats fluid.Stats
}

// simulateFluid runs one point through the fluid engine's public calls.
func simulateFluid(c fctConfig, tr *obs.Tracer) (*fluidOp, error) {
	op := &fluidOp{}
	alloc0 := allocBytes()
	root := tr.Start("fluid", nil)
	defer root.End()

	t := time.Now()
	sp := tr.Start("fluid.NewFatTree", root)
	fb, err := fluid.NewFatTree(fluid.DefaultConfig(), fluid.FatTreeOpts{
		K: c.k, RateBps: linkRateBps, Delay: linkDelay})
	sp.End()
	if err != nil {
		return nil, err
	}
	model, err := fluid.ModelFor("FNCC", fb.BaseRTT)
	if err != nil {
		return nil, err
	}
	sp = tr.Start("workload.Generate", root)
	flows, err := placeFlows(fb.Hosts, c.horizon, c.seed)
	sp.End()
	if err != nil {
		return nil, err
	}
	op.flows = len(flows)
	sp = tr.Start("fluid.NewSim", root)
	s := fluid.NewSim(fb, model)
	for _, f := range flows {
		if _, err := s.AddFlow(f.ID, f.SrcHost, f.DstHost, f.SizeBytes, f.Start); err != nil {
			sp.End()
			return nil, fmt.Errorf("fluid AddFlow: %w", err)
		}
	}
	sp.End()
	op.setupDur = lap(&t)

	sp = tr.Start("Sim.Run", root)
	r := s.Run(c.horizon * drainFactor)
	sp.End()
	sp = tr.Start("FCTCollector.SlowdownDist", root)
	op.out = map[string]float64{
		"completed":    float64(r.Completed),
		"generated":    float64(r.Generated),
		"offered_load": workload.OfferedLoad(flows, fb.Hosts, linkRateBps, c.horizon),
	}
	slowdowns(op.out, "", r.FCT.SlowdownDist(0, math.MaxInt64))
	sp.End()
	op.simDur = lap(&t)
	op.stats = r.Stats
	op.allocBytes = allocBytes() - alloc0
	return op, nil
}

// runFluidWorkload runs the k=16 fluid point back to back.
func runFluidWorkload(o opts) (*result, error) {
	res := &result{}
	tr, prof, cycle := tracing(o, 2)
	// Water-filling work depends on which flows share links: one placement
	// of the trace does up to a third more full passes than another. Each
	// cycle therefore places the trace anew, so a run's median is taken
	// over many placements and seeds compare evenly.
	round := func(r int) int64 { return o.seed + int64(r)*1_000_003 }
	ops, err := simLoop(o, res, cycle, tr, prof, map[int64]map[string]float64{}, round,
		func(_ int, seed int64, t *obs.Tracer) (*fluidOp, error) {
			return simulateFluid(fluidPoint(seed, o.tiny), t)
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
	// Placements differ per cycle, so each engine counter is the median
	// over the untraced operations.
	per := func(f func(st fluid.Stats) float64) float64 {
		var xs []float64
		for _, op := range ops[opMain] {
			xs = append(xs, f(op.stats))
		}
		return median(xs)
	}
	perEvent := func(f func(st fluid.Stats) int64) float64 {
		return per(func(st fluid.Stats) float64 { return ratio(float64(f(st)), float64(st.Events)) })
	}
	events := per(func(st fluid.Stats) float64 { return float64(st.Events) })
	m["topo.build_s"] = spanMedian(tr, "fluid.NewFatTree")
	m["workload.generate_s"] = spanMedian(tr, "workload.Generate")
	m["workload.flows"] = float64(ops[opMain][0].flows)
	m["metrics.collect_s"] = spanMedian(tr, "FCTCollector.SlowdownDist")
	m["fluid.events"] = events
	m["fluid.us_per_event"] = 1e6 * ratio(spanMedian(tr, "Sim.Run"), events)
	m["fluid.full_passes"] = per(func(st fluid.Stats) float64 { return float64(st.Recomputes) })
	m["fluid.incremental_passes"] = per(func(st fluid.Stats) float64 { return float64(st.IncrementalPasses) })
	m["fluid.links_touched_per_event"] = perEvent(func(st fluid.Stats) int64 { return st.LinksTouched })
	m["fluid.flows_touched_per_event"] = perEvent(func(st fluid.Stats) int64 { return st.FlowsTouched })
	m["fluid.heap_invalidations_per_event"] = perEvent(func(st fluid.Stats) int64 { return st.HeapInvalidations })
	res.metrics = m
	return res, writeSpans(o, tr)
}
