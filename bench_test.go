// Benchmarks regenerating every table and figure of the paper's evaluation
// at CI scale. Each figure benchmark runs the figure's registry scenario
// (the spec `fnccbench sweep` runs at full scale; cmd/fctsweep for the
// Figs 14/15 bucket tables) through RunScenario, shortened where noted,
// and reports the figure's headline quantity via b.ReportMetric, so
// `go test -bench=.` prints the reproduction numbers alongside the runtime
// cost. The ablations build their networks directly. DESIGN.md's
// experiment index maps figures to these benchmarks.
package fncc

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// runEntry runs the registry scenario name under scheme, with edit (if
// any) applied to its spec, and returns the result's metrics.
func runEntry(b *testing.B, name, scheme string, edit func(*Scenario)) map[string]float64 {
	b.Helper()
	sp, err := LookupScenario(name)
	if err != nil {
		b.Fatal(err)
	}
	sp.Scheme = scheme
	if edit != nil {
		edit(&sp)
	}
	res, err := RunScenario(sp)
	if err != nil {
		b.Fatal(err)
	}
	return res.Metrics
}

// durationUs returns a spec edit setting the run's duration.
func durationUs(us int64) func(*Scenario) {
	return func(sp *Scenario) { sp.DurationUs = us }
}

// --- Fig 1b-d: queue length vs time at 100/200/400 G (DCQCN/HPCC/FNCC) ---

func benchFig1(b *testing.B, entry string) {
	for _, scheme := range []string{SchemeDCQCN, SchemeHPCC, SchemeFNCC} {
		b.Run(scheme, func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				peak = runEntry(b, entry, scheme, durationUs(600))["queue_peak_bytes"]
			}
			b.ReportMetric(peak/1000, "queuePeakKB")
		})
	}
}

func BenchmarkFig1QueueLength100G(b *testing.B) { benchFig1(b, "micro") }
func BenchmarkFig1QueueLength200G(b *testing.B) { benchFig1(b, "micro-200g") }
func BenchmarkFig1QueueLength400G(b *testing.B) { benchFig1(b, "micro-400g") }

// --- Fig 3: PFC pause frames at the congestion point, 200/400 G ---

// benchFig3 runs the registry's Fig 3 entries unchanged, as README's
// figure table does: the paper's 500 KB pause threshold over 1.2 ms.
func benchFig3(b *testing.B, entry string) {
	for _, scheme := range []string{SchemeDCQCN, SchemeHPCC, SchemeFNCC} {
		b.Run(scheme, func(b *testing.B) {
			var pauses float64
			for i := 0; i < b.N; i++ {
				pauses = runEntry(b, entry, scheme, nil)["pause_frames"]
			}
			b.ReportMetric(pauses, "pauseFrames")
		})
	}
}

func BenchmarkFig3PauseFrames200G(b *testing.B) { benchFig3(b, "micro-200g") }
func BenchmarkFig3PauseFrames400G(b *testing.B) { benchFig3(b, "micro-400g") }

// --- Fig 9: response speed + utilization, all four schemes ---

func BenchmarkFig9ResponseSpeed100G(b *testing.B) {
	for _, scheme := range AllSchemes() {
		b.Run(scheme, func(b *testing.B) {
			var first float64
			for i := 0; i < b.N; i++ {
				first = runEntry(b, "micro", scheme, durationUs(800))["first_slowdown_us"]
			}
			b.ReportMetric(first, "firstSlowdown_us") // -1: never slowed
		})
	}
}

func BenchmarkFig9Utilization(b *testing.B) {
	for _, rate := range []int64{200, 400} {
		for _, scheme := range AllSchemes() {
			b.Run(fmt.Sprintf("%dG/%s", rate, scheme), func(b *testing.B) {
				var util float64
				for i := 0; i < b.N; i++ {
					entry := fmt.Sprintf("micro-%dg", rate)
					util = runEntry(b, entry, scheme, durationUs(700))["mean_util"]
				}
				b.ReportMetric(100*util, "meanUtil_pct")
			})
		}
	}
}

// --- Fig 13a-d: gains by congestion location, including the LHCS ablation ---

func BenchmarkFig13HopLocation(b *testing.B) {
	for _, pos := range []string{"first", "middle", "last"} {
		for _, scheme := range []string{SchemeHPCC, SchemeFNCC, SchemeFNCCNoLHCS} {
			if scheme == SchemeFNCCNoLHCS && pos != "last" {
				continue // the paper only ablates LHCS at the last hop
			}
			b.Run(fmt.Sprintf("%s/%s", pos, scheme), func(b *testing.B) {
				var m map[string]float64
				for i := 0; i < b.N; i++ {
					m = runEntry(b, "hop-"+pos, scheme, nil)
				}
				b.ReportMetric(m["queue_peak_bytes"]/1000, "queuePeakKB")
				b.ReportMetric(100*m["mean_util"], "meanUtil_pct")
			})
		}
	}
}

// --- Fig 13e: fairness over staggered flows ---

func BenchmarkFig13Fairness(b *testing.B) {
	for _, scheme := range []string{SchemeFNCC, SchemeHPCC} {
		b.Run(scheme, func(b *testing.B) {
			var jain float64
			for i := 0; i < b.N; i++ {
				jain = runEntry(b, "fairness", scheme, func(sp *Scenario) {
					sp.Workload.StaggerUs = 500
				})["jain_all_active"]
			}
			b.ReportMetric(jain, "jainIndex")
		})
	}
}

// --- Figs 14/15: fat-tree FCT slowdown sweeps ---

func benchFCT(b *testing.B, entry string, horizonUs int64, load float64) {
	for _, scheme := range []string{SchemeDCQCN, SchemeHPCC, SchemeFNCC} {
		b.Run(scheme, func(b *testing.B) {
			var p95Small, medLarge float64
			for i := 0; i < b.N; i++ {
				sp, err := LookupScenario(entry)
				if err != nil {
					b.Fatal(err)
				}
				sp.Scheme = scheme
				sp.Topo.K = 4 // CI-scale fabric; cmd/fctsweep runs k=8
				sp.DurationUs = horizonUs
				sp.Load = load
				_, col, err := scenario.RunFlows(sp)
				if err != nil {
					b.Fatal(err)
				}
				p95Small = col.SlowdownDist(0, 100_000).P95()
				medLarge = col.SlowdownDist(1_000_000, 1<<62).Median()
			}
			b.ReportMetric(p95Small, "p95SlowdownSmall")
			if medLarge > 0 {
				b.ReportMetric(medLarge, "medianSlowdownLarge")
			}
		})
	}
}

func BenchmarkFig14WebSearchFCT(b *testing.B) {
	benchFCT(b, "fct-websearch", 2000, 0.5)
}

func BenchmarkFig15HadoopFCT(b *testing.B) {
	benchFCT(b, "fct-hadoop", 1000, 0.5)
}

// --- Fig 2/12 model: notification latency by congested hop ---

func BenchmarkNotificationLatency(b *testing.B) {
	for _, scheme := range []string{SchemeFNCC, SchemeHPCC} {
		b.Run(scheme, func(b *testing.B) {
			sp, err := LookupScenario("notify-first")
			if err != nil {
				b.Fatal(err)
			}
			sp.Scheme = scheme
			var firstHop float64
			for i := 0; i < b.N; i++ {
				res, err := RunScenario(sp)
				if err != nil {
					b.Fatal(err)
				}
				firstHop = res.Metrics["notify_latency_us"]
			}
			b.ReportMetric(firstHop, "firstHopNotify_us")
		})
	}
}

// --- Ablation A1: symmetric vs asymmetric ECMP hashing for FNCC ---

func BenchmarkAblationAsymmetricRouting(b *testing.B) {
	for _, symmetric := range []bool{true, false} {
		name := "symmetric"
		if !symmetric {
			name = "asymmetric"
		}
		b.Run(name, func(b *testing.B) {
			var p95 float64
			for i := 0; i < b.N; i++ {
				scheme := MustScheme(SchemeFNCC)
				cfg := DefaultNetConfig()
				cfg.SymmetricECMP = symmetric
				ft := MustFatTree(cfg, scheme, FatTreeOpts{K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond})
				wlFlows := incastWorkload(ft, 800)
				ft.Net.RunToCompletion(50 * sim.Millisecond)
				d := ft.Net.FCT.SlowdownDist(0, 1<<62)
				p95 = d.P95()
				_ = wlFlows
			}
			b.ReportMetric(p95, "p95Slowdown")
		})
	}
}

// incastWorkload adds a deterministic mixed workload across the fat-tree.
func incastWorkload(ft *FatTree, flows int) int {
	rng := sim.NewRNG(7)
	hosts := len(ft.Hosts)
	for i := 0; i < flows; i++ {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		size := int64(2000 + rng.Intn(60_000))
		start := sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
		ft.AddFlow(uint64(i+1), src, dst, size, start)
	}
	return flows
}

// --- Ablation A2: cumulative ACK coalescing (§3.2.3) ---

func BenchmarkAblationCumulativeAck(b *testing.B) {
	for _, every := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ackEvery%d", every), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				scheme := MustScheme(SchemeFNCC)
				cfg := DefaultNetConfig()
				cfg.AckEveryN = every
				c := MustChain(cfg, scheme, DefaultChainOpts(2))
				c.AddFlow(1, 0, 1<<40, 0)
				c.AddFlow(2, 1, 1<<40, 300*sim.Microsecond)
				var maxQ int64
				stop := c.Net.Eng.Ticker(sim.Microsecond, func() {
					if q := c.BottleneckPort().QueueBytes(); q > maxQ {
						maxQ = q
					}
				})
				c.Net.RunUntil(800 * sim.Microsecond)
				stop()
				peak = float64(maxQ)
			}
			b.ReportMetric(peak/1000, "queuePeakKB")
		})
	}
}

// --- Ablation A3: LHCS β sensitivity (Algorithm 2's drain factor) ---

func BenchmarkAblationLHCSParams(b *testing.B) {
	for _, beta := range []float64{0.8, 0.9, 0.95, 1.0} {
		b.Run(fmt.Sprintf("beta%.2f", beta), func(b *testing.B) {
			var peak, util float64
			for i := 0; i < b.N; i++ {
				fc := DefaultFNCCConfig()
				fc.Beta = beta
				scheme := NewFNCCScheme(fc)
				opts := DefaultChainOpts(2)
				opts.SenderAttach = []int{0, 2}
				c := MustChain(DefaultNetConfig(), scheme, opts)
				c.AddFlow(1, 0, 1<<40, 0)
				c.AddFlow(2, 1, 1<<40, 300*sim.Microsecond)
				port := c.HopPort(2)
				var maxQ int64
				var lastTx uint64
				var utilSum float64
				var utilN int
				stop := c.Net.Eng.Ticker(sim.Microsecond, func() {
					if q := port.QueueBytes(); q > maxQ {
						maxQ = q
					}
					tx := port.TxBytes()
					if c.Net.Eng.Now() > 320*sim.Microsecond {
						utilSum += float64(tx-lastTx) * 8 / (100e9 * sim.Microsecond.Seconds())
						utilN++
					}
					lastTx = tx
				})
				c.Net.RunUntil(700 * sim.Microsecond)
				stop()
				peak = float64(maxQ)
				if utilN > 0 {
					util = utilSum / float64(utilN)
				}
			}
			b.ReportMetric(peak/1000, "queuePeakKB")
			b.ReportMetric(100*util, "meanUtil_pct")
		})
	}
}

// --- Extension baselines: Timely and Swift on the Fig 9 micro-benchmark ---

func BenchmarkExtensionBaselines(b *testing.B) {
	for _, scheme := range []string{SchemeTimely, SchemeSwift} {
		b.Run(scheme, func(b *testing.B) {
			var m map[string]float64
			for i := 0; i < b.N; i++ {
				m = runEntry(b, "micro", scheme, durationUs(800))
			}
			b.ReportMetric(m["queue_peak_bytes"]/1000, "queuePeakKB")
			b.ReportMetric(m["first_slowdown_us"], "firstSlowdown_us")
		})
	}
}

// --- Substrate microbenchmarks: simulator cost itself ---

func BenchmarkSubstrateDumbbellSimSpeed(b *testing.B) {
	// Cost of simulating 200us of the 2-flow dumbbell with FNCC: reported
	// as wall time per simulated event.
	for i := 0; i < b.N; i++ {
		c := MustChain(DefaultNetConfig(), MustScheme(SchemeFNCC), DefaultChainOpts(2))
		c.AddFlow(1, 0, 1<<40, 0)
		c.AddFlow(2, 1, 1<<40, 50*sim.Microsecond)
		c.Net.RunUntil(200 * sim.Microsecond)
		b.ReportMetric(float64(c.Net.Eng.Processed()), "events")
	}
}
