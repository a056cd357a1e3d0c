package scenario

// Fluid-backend runners: the same declarative kinds (fct, incast,
// permutation, alltoall) executed on the flow-level fluid approximation
// (internal/fluid) instead of the packet engine. Each runner offers the
// identical flow set — same workload generator, same seeds, same flow IDs
// (which drive ECMP placement) — so a fluid point is the fast companion of
// the packet point with the same spec hash modulo the backend field.

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// attachFluidProbe wires the spec's telemetry block (if any) to a fluid sim
// for a run spanning the given horizon. Must be called after every AddFlow:
// the probe snapshots the flow set at attach time.
func attachFluidProbe(s *fluid.Sim, sp Spec, span sim.Time) *telemetry.FluidProbe {
	cfg := sp.Telemetry.Config()
	if cfg == nil {
		return nil
	}
	return telemetry.AttachFluid(s, *cfg, telemetry.Samples(span, cfg.Interval))
}

// fluidProbeOutput extracts a fluid probe's output (nil-safe).
func fluidProbeOutput(tp *telemetry.FluidProbe) *telemetry.Output {
	if tp == nil {
		return nil
	}
	return tp.Output()
}

// fluidModel resolves the spec's rate-convergence model: the per-scheme
// calibration by default, or the explicit fluid_tau_rtts cc override
// (0 = idealized instant max-min).
func fluidModel(sp Spec, baseRTT sim.Time) (fluid.Model, error) {
	if v, ok := sp.CC[FluidSchemeCCKey]; ok {
		return fluid.Model{Tau: sim.Time(v * float64(baseRTT))}, nil
	}
	return fluid.ModelFor(sp.Scheme, baseRTT)
}

// fluidFatTree builds the spec's fat-tree as a fluid fabric.
func fluidFatTree(sp Spec) (*fluid.Fabric, error) {
	return fluid.NewFatTree(fluid.DefaultConfig(), fluid.FatTreeOpts{
		K: sp.Topo.K, RateBps: sp.Topo.RateBps(),
		CoreRateBps: sp.Topo.CoreRateBps(), Delay: sp.Topo.Delay(),
	})
}

// fluidPerfMetrics is the fluid analog of perfMetrics: events here are rate
// recomputations, not packet events, which is exactly why the backend is
// fast — report them under the same key so sweeps compare engine work.
// The fluid_* columns expose the incremental engine's affected-fraction
// telemetry: how much of the fabric each event actually touched, and how
// often the worklist overran into a global pass.
func fluidPerfMetrics(m map[string]float64, st fluid.Stats) {
	m["engine_events"] = float64(st.Events)
	m["fluid_full_passes"] = float64(st.Recomputes)
	m["fluid_incremental_passes"] = float64(st.IncrementalPasses)
	if st.Events > 0 {
		ev := float64(st.Events)
		m["fluid_links_touched_per_event"] = float64(st.LinksTouched) / ev
		m["fluid_flows_touched_per_event"] = float64(st.FlowsTouched) / ev
		m["fluid_heap_invalidations_per_event"] = float64(st.HeapInvalidations) / ev
	}
}

// runFCTFluid is the fluid twin of runFCT: identical Poisson workload
// (same CDF, load, seed, horizon, flow IDs), FCT slowdowns from max-min
// rate sharing instead of per-packet simulation.
func runFCTFluid(sp Spec) (map[string]float64, *telemetry.Output, error) {
	fb, err := fluidFatTree(sp)
	if err != nil {
		return nil, nil, err
	}
	model, err := fluidModel(sp, fb.BaseRTT)
	if err != nil {
		return nil, nil, err
	}
	cdf, ok := workload.ByName(sp.Workload.CDF)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload CDF %q", sp.Workload.CDF)
	}
	horizon := sp.Duration()
	flows, err := workload.Generate(workload.GenConfig{
		Hosts:     fb.Hosts,
		AccessBps: sp.Topo.RateBps(),
		Load:      sp.Load,
		CDF:       cdf,
		Horizon:   horizon,
		Seed:      sp.Seed,
		FirstID:   1,
	})
	if err != nil {
		return nil, nil, err
	}
	s := fluid.NewSim(fb, model)
	for _, fs := range flows {
		if _, err := s.AddFlow(fs.ID, fs.SrcHost, fs.DstHost, fs.SizeBytes, fs.Start); err != nil {
			return nil, nil, err
		}
	}
	tp := attachFluidProbe(s, sp, horizon*11)
	res := s.Run(horizon * 11) // horizon + 10x drain, like exp.RunFCT
	m := map[string]float64{
		"completed":    float64(res.Completed),
		"generated":    float64(res.Generated),
		"offered_load": workload.OfferedLoad(flows, fb.Hosts, sp.Topo.RateBps(), horizon),
	}
	slowdownMetrics(m, res.FCT)
	fluidPerfMetrics(m, res.Stats)
	return m, fluidProbeOutput(tp), nil
}

// runIncastFluid is the fluid twin of runIncast: Fanout senders behind the
// last-hop switch of the 3-switch chain, one BytesPerSender flow each. The
// receiver access link is the single bottleneck; max-min shares it equally,
// so jain_min is 1 by construction (reported for table parity).
func runIncastFluid(sp Spec) (map[string]float64, *telemetry.Output, error) {
	attach := make([]int, sp.Workload.Fanout)
	for i := range attach {
		attach[i] = sp.Topo.Switches - 1
	}
	fb, err := fluid.NewChain(fluid.DefaultConfig(), fluid.ChainOpts{
		Switches:     sp.Topo.Switches,
		SenderAttach: attach,
		RateBps:      sp.Topo.RateBps(),
		Delay:        sp.Topo.Delay(),
	})
	if err != nil {
		return nil, nil, err
	}
	model, err := fluidModel(sp, fb.BaseRTT)
	if err != nil {
		return nil, nil, err
	}
	s := fluid.NewSim(fb, model)
	receiver := fb.Hosts - 1
	for i := 0; i < sp.Workload.Fanout; i++ {
		if _, err := s.AddFlow(uint64(i+1), i, receiver, sp.Workload.FlowBytes, 0); err != nil {
			return nil, nil, err
		}
	}
	tp := attachFluidProbe(s, sp, sp.Duration())
	res := s.Run(sp.Duration())
	m := map[string]float64{
		"all_done_us": -1,
		"jain_min":    1,
	}
	if res.Completed == res.Generated {
		m["all_done_us"] = timeUs(maxFinish(res))
	}
	fluidPerfMetrics(m, res.Stats)
	return m, fluidProbeOutput(tp), nil
}

// runPermutationFluid mirrors runPermutation's flow set exactly (IDs drive
// ECMP placement, so collisions land on the same fabric links as packet).
func runPermutationFluid(sp Spec) (map[string]float64, *telemetry.Output, error) {
	fb, err := fluidFatTree(sp)
	if err != nil {
		return nil, nil, err
	}
	model, err := fluidModel(sp, fb.BaseRTT)
	if err != nil {
		return nil, nil, err
	}
	hosts := fb.Hosts
	shift := sp.Workload.Shift
	if shift == 0 {
		shift = hosts / 2
	}
	if shift%hosts == 0 {
		return nil, nil, fmt.Errorf("permutation shift %d maps hosts to themselves", shift)
	}
	s := fluid.NewSim(fb, model)
	for i := 0; i < hosts; i++ {
		if _, err := s.AddFlow(uint64(i+1), i, (i+shift)%hosts, sp.Workload.FlowBytes, 0); err != nil {
			return nil, nil, err
		}
	}
	tp := attachFluidProbe(s, sp, sp.Duration())
	res := s.Run(sp.Duration())
	return fluidFabricMetrics(res), fluidProbeOutput(tp), nil
}

// runAllToAllFluid mirrors runAllToAll's shuffle flow set.
func runAllToAllFluid(sp Spec) (map[string]float64, *telemetry.Output, error) {
	fb, err := fluidFatTree(sp)
	if err != nil {
		return nil, nil, err
	}
	model, err := fluidModel(sp, fb.BaseRTT)
	if err != nil {
		return nil, nil, err
	}
	hosts := fb.Hosts
	s := fluid.NewSim(fb, model)
	id := uint64(1)
	for src := 0; src < hosts; src++ {
		for dst := 0; dst < hosts; dst++ {
			if dst == src {
				continue
			}
			if _, err := s.AddFlow(id, src, dst, sp.Workload.FlowBytes, 0); err != nil {
				return nil, nil, err
			}
			id++
		}
	}
	tp := attachFluidProbe(s, sp, sp.Duration())
	res := s.Run(sp.Duration())
	return fluidFabricMetrics(res), fluidProbeOutput(tp), nil
}

// fluidFabricMetrics folds a fluid pattern run into the flat metric map the
// packet patterns emit (minus the queue/PFC counters the model lacks).
func fluidFabricMetrics(res *fluid.Result) map[string]float64 {
	m := map[string]float64{
		"completed": float64(res.Completed),
		"generated": float64(res.Generated),
		"completed_all": func() float64 {
			if res.Completed == res.Generated {
				return 1
			}
			return 0
		}(),
		"makespan_us": timeUs(maxFinish(res)),
	}
	slowdownMetrics(m, res.FCT)
	fluidPerfMetrics(m, res.Stats)
	return m
}

// maxFinish returns the latest completion in the run (0 if none).
func maxFinish(res *fluid.Result) sim.Time {
	var last sim.Time
	for _, r := range res.FCT.Records {
		if r.Finish > last {
			last = r.Finish
		}
	}
	return last
}
