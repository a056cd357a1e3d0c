package scenario

// Traffic patterns the fixed exp runners cannot express: permutation,
// all-to-all shuffle, and a mixed Poisson-background + periodic-incast
// workload, all on the fat-tree. Each returns the same flat metric map as
// the exp-backed kinds so sweep tables compose across kinds.

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// attachNetProbe wires the spec's telemetry block (if any) to a fat-tree
// fabric for a run spanning the given horizon.
func attachNetProbe(ft *topo.FatTree, sp Spec, span sim.Time) *telemetry.NetProbe {
	cfg := sp.Telemetry.Config()
	if cfg == nil {
		return nil
	}
	return telemetry.AttachNet(ft.Net, *cfg, telemetry.Samples(span, cfg.Interval))
}

// probeOutput stops a probe and extracts its output (nil-safe).
func probeOutput(tp *telemetry.NetProbe) *telemetry.Output {
	if tp == nil {
		return nil
	}
	tp.Stop()
	return tp.Output()
}

// buildFatTree constructs the spec's fat-tree with the (possibly overridden)
// scheme installed and the seed threaded into fabric randomness.
func buildFatTree(sp Spec) (*topo.FatTree, error) {
	scheme, err := BuildScheme(sp.Scheme, sp.CC)
	if err != nil {
		return nil, err
	}
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = sp.Seed
	opts := topo.FatTreeOpts{K: sp.Topo.K, RateBps: sp.Topo.RateBps(),
		CoreRateBps: sp.Topo.CoreRateBps(), Delay: sp.Topo.Delay(),
		Workers: sp.Workers}
	return topo.BuildFatTree(ncfg, scheme, opts)
}

// fabricMetrics folds the run-wide counters and FCT stats shared by the
// pattern kinds: completion bookkeeping, makespan, slowdowns, PFC/drops.
func fabricMetrics(ft *topo.FatTree, generated int, done bool) map[string]float64 {
	m := map[string]float64{
		"completed":    float64(ft.Net.FCT.N()),
		"generated":    float64(generated),
		"pause_frames": float64(ft.Net.PauseFrames.N),
		"drops":        float64(ft.Net.Drops.N),
		"completed_all": func() float64 {
			if done {
				return 1
			}
			return 0
		}(),
	}
	var makespan sim.Time
	for _, r := range ft.Net.FCT.Records {
		if r.Finish > makespan {
			makespan = r.Finish
		}
	}
	m["makespan_us"] = timeUs(makespan)
	slowdownMetrics(m, ft.Net.FCT)
	return m
}

// runPermutation sends one FlowBytes flow per host to the host Shift away
// (default hosts/2, i.e. always cross-pod on a fat-tree): an admissible
// pattern — every host sends and receives exactly once — that exercises
// every tier of the fabric simultaneously.
func runPermutation(sp Spec) (map[string]float64, *telemetry.Output, error) {
	ft, err := buildFatTree(sp)
	if err != nil {
		return nil, nil, err
	}
	hosts := len(ft.Hosts)
	shift := sp.Workload.Shift
	if shift == 0 {
		shift = hosts / 2
	}
	if shift%hosts == 0 {
		return nil, nil, fmt.Errorf("permutation shift %d maps hosts to themselves", shift)
	}
	for i := 0; i < hosts; i++ {
		ft.AddFlow(uint64(i+1), i, (i+shift)%hosts, sp.Workload.FlowBytes, 0)
	}
	tp := attachNetProbe(ft, sp, sp.Duration())
	done := ft.Net.RunToCompletion(sp.Duration())
	tel := probeOutput(tp)
	m := fabricMetrics(ft, hosts, done)
	perfMetrics(m, exp.PerfOf(ft.Net))
	return m, tel, nil
}

// runAllToAll is the shuffle: every host sends FlowBytes to every other
// host, all starting at t=0. Each host simultaneously fans out to and
// receives from hosts-1 peers, the worst admissible stress the fabric
// supports.
func runAllToAll(sp Spec) (map[string]float64, *telemetry.Output, error) {
	ft, err := buildFatTree(sp)
	if err != nil {
		return nil, nil, err
	}
	hosts := len(ft.Hosts)
	id := uint64(1)
	for src := 0; src < hosts; src++ {
		for dst := 0; dst < hosts; dst++ {
			if dst == src {
				continue
			}
			ft.AddFlow(id, src, dst, sp.Workload.FlowBytes, 0)
			id++
		}
	}
	tp := attachNetProbe(ft, sp, sp.Duration())
	done := ft.Net.RunToCompletion(sp.Duration())
	tel := probeOutput(tp)
	m := fabricMetrics(ft, hosts*(hosts-1), done)
	perfMetrics(m, exp.PerfOf(ft.Net))
	return m, tel, nil
}

// runMixed layers periodic Fanout-to-1 incast bursts (every BurstEveryUs,
// victim host 0) over an open-loop Poisson background at Load, the
// composite pattern production fabrics actually see. The run drains after
// the arrival horizon like the FCT experiment.
func runMixed(sp Spec) (map[string]float64, *telemetry.Output, error) {
	ft, err := buildFatTree(sp)
	if err != nil {
		return nil, nil, err
	}
	hosts := len(ft.Hosts)
	if sp.Workload.Fanout >= hosts {
		return nil, nil, fmt.Errorf("mixed fanout %d needs < %d hosts", sp.Workload.Fanout, hosts)
	}
	cdf, ok := workload.ByName(sp.Workload.CDF)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload CDF %q", sp.Workload.CDF)
	}
	horizon := sp.Duration()
	flows, err := workload.Generate(workload.GenConfig{
		Hosts:     hosts,
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
	for _, fs := range flows {
		ft.AddFlow(fs.ID, fs.SrcHost, fs.DstHost, fs.SizeBytes, fs.Start)
	}
	// Bursts: responders 1..Fanout all answer host 0 at once, every period.
	id := uint64(len(flows) + 1)
	burstFlows := 0
	period := sim.Time(sp.Workload.BurstEveryUs) * sim.Microsecond
	for t := period; t < horizon; t += period {
		for r := 1; r <= sp.Workload.Fanout; r++ {
			ft.AddFlow(id, r, 0, sp.Workload.FlowBytes, t)
			id++
			burstFlows++
		}
	}
	tp := attachNetProbe(ft, sp, horizon*11)
	done := ft.Net.RunToCompletion(horizon * 11) // horizon + 10x drain
	tel := probeOutput(tp)
	m := fabricMetrics(ft, len(flows)+burstFlows, done)
	m["burst_flows"] = float64(burstFlows)
	m["offered_load"] = workload.OfferedLoad(flows, hosts, sp.Topo.RateBps(), horizon)
	perfMetrics(m, exp.PerfOf(ft.Net))
	return m, tel, nil
}
