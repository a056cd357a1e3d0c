package scenario

import (
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The paper's qualitative claims, checked on the kind runners: who reacts
// first, whose queue stays shallowest, where LHCS pays off.

// runMetrics runs sp and returns its metrics, failing the test on error.
func runMetrics(t *testing.T, sp Spec) map[string]float64 {
	t.Helper()
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	return res.Metrics
}

// flowRateSeries counts the per-flow pacing-rate series in a cc-probed
// result: one per sender the run drove.
func flowRateSeries(t *testing.T, sp Spec) int {
	t.Helper()
	sp.Telemetry = &TelemetrySpec{IntervalUs: 100, Probes: []string{"cc"}}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range res.Telemetry.Series {
		if strings.HasSuffix(s.Name, "/rate_bps") {
			n++
		}
	}
	return n
}

func microSpec(scheme string, rateGbps, durUs int64) Spec {
	return Spec{Kind: KindMicro, Scheme: scheme,
		Topo: TopoSpec{RateGbps: rateGbps}, DurationUs: durUs}
}

func TestRunMicroShapes(t *testing.T) {
	// The central integration test: run all four schemes on the Fig 9
	// micro-benchmark at 100G and assert the paper's qualitative ordering.
	byName := map[string]map[string]float64{}
	for _, s := range exp.AllSchemes() {
		m := runMetrics(t, microSpec(s, 100, 800))
		byName[s] = m
		if m["queue_peak_bytes"] <= 0 || m["mean_util"] <= 0 {
			t.Fatalf("%s: nothing sampled: %v", s, m)
		}
		if m["drops"] != 0 {
			t.Fatalf("%s: %v drops with PFC on", s, m["drops"])
		}
	}
	fncc, hpcc, dcqcn := byName[exp.SchemeFNCC], byName[exp.SchemeHPCC], byName[exp.SchemeDCQCN]

	// Fig 9b: FNCC reacts first.
	ff, hf := fncc["first_slowdown_us"], hpcc["first_slowdown_us"]
	if ff < 0 || hf < 0 {
		t.Fatalf("no slowdown: fncc=%v hpcc=%v", ff, hf)
	}
	if ff >= hf {
		t.Errorf("FNCC slowdown %vus not before HPCC %vus", ff, hf)
	}
	// Fig 9a: queue peaks ordered FNCC < HPCC < DCQCN.
	if !(fncc["queue_peak_bytes"] < hpcc["queue_peak_bytes"]) {
		t.Errorf("queue peaks: FNCC %.0f !< HPCC %.0f", fncc["queue_peak_bytes"], hpcc["queue_peak_bytes"])
	}
	if !(hpcc["queue_peak_bytes"] < dcqcn["queue_peak_bytes"]) {
		t.Errorf("queue peaks: HPCC %.0f !< DCQCN %.0f", hpcc["queue_peak_bytes"], dcqcn["queue_peak_bytes"])
	}
	// Fig 9g: FNCC keeps utilization high after the join.
	if fncc["mean_util"] < 0.85 {
		t.Errorf("FNCC mean utilization %.2f < 0.85", fncc["mean_util"])
	}
}

func TestRunMicroHigherRates(t *testing.T) {
	// Fig 9c-f robustness: the FNCC < HPCC queue ordering must hold at
	// 400G too (shorter windows keep this cheap).
	for _, rate := range []int64{400} {
		var peak [2]float64
		for i, s := range []string{exp.SchemeFNCC, exp.SchemeHPCC} {
			peak[i] = runMetrics(t, microSpec(s, rate, 600))["queue_peak_bytes"]
		}
		if !(peak[0] < peak[1]) {
			t.Errorf("@%dG: FNCC peak %.0f !< HPCC %.0f", rate, peak[0], peak[1])
		}
	}
}

func TestRunHopPositionsAndLHCSGain(t *testing.T) {
	// Fig 13a-c: FNCC's queue reduction vs HPCC is largest at the first
	// hop, smaller mid-chain; at the last hop LHCS recovers the gain.
	run := func(scheme, hop string) map[string]float64 {
		return runMetrics(t, Spec{Kind: KindHop, Scheme: scheme, Hop: hop})
	}
	for _, hop := range []string{"first", "middle", "last"} {
		h := run(exp.SchemeHPCC, hop)["queue_peak_bytes"]
		f := run(exp.SchemeFNCC, hop)["queue_peak_bytes"]
		if f >= h {
			t.Errorf("%s: FNCC peak %.0f !< HPCC %.0f", hop, f, h)
		}
	}
	// Last hop: LHCS beats no-LHCS (Fig 13c's 38.5% vs 8.4%).
	lhcsOn := run(exp.SchemeFNCC, "last")
	lhcsOff := run(exp.SchemeFNCCNoLHCS, "last")
	if lhcsOn["lhcs_triggers"] == 0 {
		t.Error("LHCS never fired at the last hop")
	}
	if lhcsOff["lhcs_triggers"] != 0 {
		t.Error("LHCS fired while disabled")
	}
	if lhcsOn["queue_peak_bytes"] >= lhcsOff["queue_peak_bytes"] {
		t.Errorf("LHCS on peak %.0f !< off %.0f", lhcsOn["queue_peak_bytes"], lhcsOff["queue_peak_bytes"])
	}
}

func TestRunFairness(t *testing.T) {
	sp := Spec{Kind: KindFairness, Scheme: exp.SchemeFNCC,
		Workload: WorkloadSpec{StaggerUs: 400}} // CI-scale
	if n := flowRateSeries(t, sp); n != 4 {
		t.Fatalf("flow series: %d", n)
	}
	// Fig 13e: good fairness on short time scales.
	if j := runMetrics(t, sp)["jain_all_active"]; j < 0.85 {
		t.Fatalf("Jain index %.3f < 0.85 during full overlap", j)
	}
}

func TestFairShareBytesSchedule(t *testing.T) {
	// The staggered join/leave schedule is a tent: flow i and flow n-1-i
	// mirror each other, and summing every flow's fair-share integral
	// recovers exactly the busy time — (2n-1) full windows of B.
	n := 4
	s := sim.Millisecond
	rate := int64(100e9)
	var total int64
	for i := 0; i < n; i++ {
		a := fairShareBytes(n, i, s, rate)
		b := fairShareBytes(n, n-1-i, s, rate)
		if a != b {
			t.Fatalf("mirror flows %d/%d budgets differ: %d vs %d", i, n-1-i, a, b)
		}
		total += a
	}
	perWindow := int64(float64(rate) / 8 * s.Seconds())
	want := perWindow * int64(2*n-1)
	if total < want-want/1000 || total > want+want/1000 {
		t.Fatalf("total budget %d, want ~%d (2n-1 windows)", total, want)
	}
	// Edge flows see the emptiest windows, so they get the biggest budget.
	if fairShareBytes(n, 0, s, rate) <= fairShareBytes(n, 1, s, rate) {
		t.Fatal("edge flow should out-earn middle flow")
	}
}

func TestRunFCTSmall(t *testing.T) {
	// Small fat-tree FCT smoke: k=4, short horizon, two schemes; asserts
	// completion, record plausibility and the small-flow p95 ordering
	// FNCC <= DCQCN (DCQCN's sluggishness shows even at this scale).
	if testing.Short() {
		t.Skip("large integration run")
	}
	merged := map[string]*metrics.FCTCollector{}
	for _, scheme := range []string{exp.SchemeFNCC, exp.SchemeDCQCN} {
		merged[scheme] = metrics.NewFCTCollector()
		for _, seed := range []int64{1, 2} {
			res, col, err := RunFlows(Spec{Kind: KindFCT, Scheme: scheme,
				Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "hadoop"},
				Load: 0.4, Seed: seed, DurationUs: 500})
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m["generated"] == 0 {
				t.Fatalf("%s/seed%d: no flows generated", scheme, seed)
			}
			if m["completed"] < float64(int(m["generated"])*95/100) {
				t.Fatalf("%s/seed%d: only %v/%v completed", scheme, seed, m["completed"], m["generated"])
			}
			if m["offered_load"] < 0.15 || m["offered_load"] > 0.8 {
				t.Fatalf("offered load %.2f implausible", m["offered_load"])
			}
			if col.N() != int(m["completed"]) {
				t.Fatalf("%s/seed%d: %d records for %v completions", scheme, seed, col.N(), m["completed"])
			}
			merged[scheme].Merge(col)
		}
	}
	fncc := merged[exp.SchemeFNCC].SlowdownDist(0, 100_000)
	dcqcn := merged[exp.SchemeDCQCN].SlowdownDist(0, 100_000)
	if fncc.N() == 0 || dcqcn.N() == 0 {
		t.Fatal("empty slowdown distributions")
	}
	if fncc.P95() > dcqcn.P95()*1.1 {
		t.Errorf("small-flow p95: FNCC %.2f vs DCQCN %.2f", fncc.P95(), dcqcn.P95())
	}

	tables, err := exp.FormatFCTTables("hadoop", merged, []string{exp.SchemeFNCC, exp.SchemeDCQCN})
	if err != nil || !strings.Contains(tables, "p95") {
		t.Fatalf("tables err=%v:\n%s", err, tables)
	}
	_ = exp.FormatHeadlines("hadoop", merged)
}

// TestRunFlowsRejects: RunFlows validates like Run and serves only the
// packet fct kind.
func TestRunFlowsRejects(t *testing.T) {
	for _, sp := range []Spec{
		{Kind: KindFCT, Scheme: "FNCC", Workload: WorkloadSpec{CDF: "nope"}},
		{Kind: KindFCT, Scheme: "FNCC", Backend: BackendFluid},
		{Kind: KindMicro, Scheme: "FNCC"},
	} {
		if _, _, err := RunFlows(sp); err == nil {
			t.Errorf("RunFlows accepted %+v", sp)
		}
	}
}

func incastSpec(scheme string, fanout int, flowBytes int64) Spec {
	return Spec{Kind: KindIncast, Scheme: scheme,
		Workload: WorkloadSpec{Fanout: fanout, FlowBytes: flowBytes}}
}

func TestRunIncastLHCSWins(t *testing.T) {
	run := func(scheme string) map[string]float64 {
		m := runMetrics(t, incastSpec(scheme, 8, 512<<10))
		if m["all_done_us"] < 0 {
			t.Fatalf("%s: incast did not complete", scheme)
		}
		return m
	}
	on := run(exp.SchemeFNCC)
	off := run(exp.SchemeFNCCNoLHCS)
	hpcc := run(exp.SchemeHPCC)

	if on["lhcs_triggers"] == 0 {
		t.Fatal("LHCS never fired during last-hop incast")
	}
	if off["lhcs_triggers"] != 0 || hpcc["lhcs_triggers"] != 0 {
		t.Fatal("LHCS counter leaked into non-LHCS schemes")
	}
	if on["queue_peak_bytes"] >= off["queue_peak_bytes"] {
		t.Errorf("LHCS peak %v !< no-LHCS %v", on["queue_peak_bytes"], off["queue_peak_bytes"])
	}
	if on["queue_peak_bytes"] >= hpcc["queue_peak_bytes"] {
		t.Errorf("FNCC peak %v !< HPCC %v", on["queue_peak_bytes"], hpcc["queue_peak_bytes"])
	}
	// LHCS assigns the fair window directly: its worst-case rate fairness
	// while all senders are active must beat the step-down schemes'.
	if on["jain_min"] <= off["jain_min"] {
		t.Errorf("LHCS jain %.3f !> no-LHCS %.3f", on["jain_min"], off["jain_min"])
	}
}

func TestExpressPassEndToEnd(t *testing.T) {
	// The receiver-driven extension through the harness: a small incast
	// where credit pacing keeps the last-hop queue near-empty.
	r := runMetrics(t, incastSpec(exp.SchemeExpressPass, 8, 256<<10))
	if r["all_done_us"] < 0 {
		t.Fatal("credit incast incomplete")
	}
	if r["pause_frames"] != 0 {
		t.Fatalf("credit pacing triggered %v pauses", r["pause_frames"])
	}
	// Compare against FNCC's window burst: ExpressPass should hold a much
	// smaller peak (it never lets a BDP-sized burst leave the senders).
	fn := runMetrics(t, incastSpec(exp.SchemeFNCC, 8, 256<<10))
	if r["queue_peak_bytes"] >= fn["queue_peak_bytes"] {
		t.Fatalf("credit peak %v !< window-burst peak %v", r["queue_peak_bytes"], fn["queue_peak_bytes"])
	}
}

// TestTimelyRunsOnMicro drives the Timely extension through the standard
// micro-benchmark: it must slow down after the join (later than FNCC) and
// keep the queue bounded.
func TestTimelyRunsOnMicro(t *testing.T) {
	r := runMetrics(t, microSpec(exp.SchemeTimely, 100, 900))
	if r["first_slowdown_us"] < 0 {
		t.Fatal("Timely never slowed down")
	}
	if r["drops"] != 0 {
		t.Fatalf("drops: %v", r["drops"])
	}
	fncc := runMetrics(t, Spec{Kind: KindMicro, Scheme: exp.SchemeFNCC})
	if r["first_slowdown_us"] < fncc["first_slowdown_us"] {
		t.Errorf("RTT-based Timely (%vus) reacted before INT-in-ACK FNCC (%vus)?",
			r["first_slowdown_us"], fncc["first_slowdown_us"])
	}
}

// TestSwiftRunsOnMicro drives the Swift extension through the standard
// micro-benchmark.
func TestSwiftRunsOnMicro(t *testing.T) {
	r := runMetrics(t, microSpec(exp.SchemeSwift, 100, 900))
	if r["drops"] != 0 {
		t.Fatalf("drops: %v", r["drops"])
	}
	if r["queue_peak_bytes"] == 0 || r["queue_peak_bytes"] > 500<<10 {
		t.Fatalf("Swift queue peak %.0fKB", r["queue_peak_bytes"]/1024)
	}
}

// TestMicroSenderScaling: the dumbbell with 4 senders (joining 300 µs
// apart) still converges to an aggregate near line rate for FNCC (N scales
// in LHCS).
func TestMicroSenderScaling(t *testing.T) {
	sp := microSpec(exp.SchemeFNCC, 100, 1500)
	sp.Topo.Senders = 4
	if n := flowRateSeries(t, sp); n != 4 {
		t.Fatalf("rate series: %d", n)
	}
	r := runMetrics(t, sp)
	if r["mean_util"] < 0.7 {
		t.Fatalf("4-sender utilization %.2f", r["mean_util"])
	}
	if r["queue_peak_bytes"] > 500<<10 {
		t.Fatalf("queue peak %dKB at PFC threshold", int64(r["queue_peak_bytes"])/1024)
	}
}
