package exp

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSchemeRegistry(t *testing.T) {
	for _, name := range append(AllSchemes(), SchemeFNCCNoLHCS) {
		s, err := NewScheme(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("scheme name %q != %q", s.Name, name)
		}
	}
	if _, err := NewScheme("TCP"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSortSchemes(t *testing.T) {
	names := []string{"RoCC", "HPCC", "FNCC", "DCQCN"}
	SortSchemes(names)
	want := []string{"FNCC", "HPCC", "DCQCN", "RoCC"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order %v", names)
		}
	}
}

func TestParallelMapOrderAndCoverage(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	got := ParallelMap(jobs, 8, func(x int) int { return x * x })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Degenerate pools.
	if r := ParallelMap([]int{}, 4, func(x int) int { return x }); len(r) != 0 {
		t.Fatal("empty jobs")
	}
	if r := ParallelMap([]int{5}, 0, func(x int) int { return x + 1 }); r[0] != 6 {
		t.Fatal("auto workers")
	}
}

func TestRunMicroShapes(t *testing.T) {
	// The central integration test: run all four schemes on the Fig 9
	// micro-benchmark at 100G and assert the paper's qualitative ordering.
	byName := map[string]*MicroResult{}
	for _, s := range AllSchemes() {
		cfg := DefaultMicroConfig(s, 100e9)
		cfg.Duration = 800 * sim.Microsecond
		r, err := RunMicro(cfg)
		if err != nil {
			t.Fatal(err)
		}
		byName[r.Scheme] = r
		if r.Queue.Len() == 0 || r.Util.Len() == 0 {
			t.Fatalf("%s: empty series", r.Scheme)
		}
		if r.Drops != 0 {
			t.Fatalf("%s: %d drops with PFC on", r.Scheme, r.Drops)
		}
	}
	fncc, hpcc, dcqcn := byName[SchemeFNCC], byName[SchemeHPCC], byName[SchemeDCQCN]

	// Fig 9b: FNCC reacts first.
	if fncc.FirstSlowdown < 0 || hpcc.FirstSlowdown < 0 {
		t.Fatalf("no slowdown: fncc=%v hpcc=%v", fncc.FirstSlowdown, hpcc.FirstSlowdown)
	}
	if fncc.FirstSlowdown >= hpcc.FirstSlowdown {
		t.Errorf("FNCC slowdown %v not before HPCC %v", fncc.FirstSlowdown, hpcc.FirstSlowdown)
	}
	// Fig 9a: queue peaks ordered FNCC < HPCC < DCQCN.
	if !(fncc.QueuePeak < hpcc.QueuePeak) {
		t.Errorf("queue peaks: FNCC %.0f !< HPCC %.0f", fncc.QueuePeak, hpcc.QueuePeak)
	}
	if !(hpcc.QueuePeak < dcqcn.QueuePeak) {
		t.Errorf("queue peaks: HPCC %.0f !< DCQCN %.0f", hpcc.QueuePeak, dcqcn.QueuePeak)
	}
	// Fig 9g: FNCC keeps utilization high after the join.
	if fncc.MeanUtil < 0.85 {
		t.Errorf("FNCC mean utilization %.2f < 0.85", fncc.MeanUtil)
	}
}

func TestRunMicroHigherRates(t *testing.T) {
	// Fig 9c-f robustness: the FNCC < HPCC queue ordering must hold at
	// 400G too (shorter windows keep this cheap).
	for _, rate := range []int64{400e9} {
		var peak [2]float64
		for i, s := range []string{SchemeFNCC, SchemeHPCC} {
			cfg := DefaultMicroConfig(s, rate)
			cfg.Duration = 600 * sim.Microsecond
			r, err := RunMicro(cfg)
			if err != nil {
				t.Fatal(err)
			}
			peak[i] = r.QueuePeak
		}
		if !(peak[0] < peak[1]) {
			t.Errorf("@%dG: FNCC peak %.0f !< HPCC %.0f", rate/1e9, peak[0], peak[1])
		}
	}
}

func TestRunMicroValidation(t *testing.T) {
	cfg := DefaultMicroConfig(SchemeFNCC, 100e9)
	cfg.Senders = 1
	if _, err := RunMicro(cfg); err == nil {
		t.Fatal("accepted 1 sender")
	}
	cfg = DefaultMicroConfig("nope", 100e9)
	if _, err := RunMicro(cfg); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}

func TestRunHopPositionsAndLHCSGain(t *testing.T) {
	// Fig 13a-c: FNCC's queue reduction vs HPCC is largest at the first
	// hop, smaller mid-chain; at the last hop LHCS recovers the gain.
	run := func(scheme string, pos HopPosition) *HopResult {
		r, err := RunHop(DefaultHopConfig(scheme, pos))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, pos := range []HopPosition{HopFirst, HopMiddle, HopLast} {
		h := run(SchemeHPCC, pos)
		f := run(SchemeFNCC, pos)
		if f.QueuePeak >= h.QueuePeak {
			t.Errorf("%s: FNCC peak %.0f !< HPCC %.0f", pos, f.QueuePeak, h.QueuePeak)
		}
	}
	// Last hop: LHCS beats no-LHCS (Fig 13c's 38.5% vs 8.4%).
	lhcsOn := run(SchemeFNCC, HopLast)
	lhcsOff := run(SchemeFNCCNoLHCS, HopLast)
	if lhcsOn.LHCSTriggers == 0 {
		t.Error("LHCS never fired at the last hop")
	}
	if lhcsOff.LHCSTriggers != 0 {
		t.Error("LHCS fired while disabled")
	}
	if lhcsOn.QueuePeak >= lhcsOff.QueuePeak {
		t.Errorf("LHCS on peak %.0f !< off %.0f", lhcsOn.QueuePeak, lhcsOff.QueuePeak)
	}
}

func TestRunHopValidation(t *testing.T) {
	cfg := DefaultHopConfig(SchemeFNCC, HopPosition("nowhere"))
	if _, err := RunHop(cfg); err == nil {
		t.Fatal("accepted bad position")
	}
}

func TestRunFairness(t *testing.T) {
	cfg := DefaultFairnessConfig(SchemeFNCC)
	cfg.Stagger = 400 * sim.Microsecond // CI-scale
	r, err := RunFairness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Goodput) != 4 {
		t.Fatalf("goodput series: %d", len(r.Goodput))
	}
	// Fig 13e: good fairness on short time scales.
	if r.JainAllActive < 0.85 {
		t.Fatalf("Jain index %.3f < 0.85 during full overlap", r.JainAllActive)
	}
}

func TestRunFairnessValidation(t *testing.T) {
	cfg := DefaultFairnessConfig(SchemeFNCC)
	cfg.Senders = 1
	if _, err := RunFairness(cfg); err == nil {
		t.Fatal("accepted 1 sender")
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

func TestBuckets(t *testing.T) {
	ws := WebSearchBuckets()
	if len(ws) != 11 || ws[0].Label != "10KB" || ws[10].HiByte != 30_000_000 {
		t.Fatalf("websearch buckets: %+v", ws)
	}
	hd := HadoopBuckets()
	if len(hd) != 13 || hd[0].LoByte != 0 || hd[0].HiByte != 75 {
		t.Fatalf("hadoop buckets: %+v", hd)
	}
	// Contiguity.
	for i := 1; i < len(ws); i++ {
		if ws[i].LoByte != ws[i-1].HiByte {
			t.Fatal("websearch buckets not contiguous")
		}
	}
	if _, err := BucketsFor("nope"); err == nil {
		t.Fatal("unknown workload buckets")
	}
}

func TestRunFCTSmall(t *testing.T) {
	// Small fat-tree FCT smoke: k=4, short horizon, two schemes; asserts
	// completion, record plausibility and the small-flow p95 ordering
	// FNCC <= DCQCN (DCQCN's sluggishness shows even at this scale).
	if testing.Short() {
		t.Skip("large integration run")
	}
	base := DefaultFCTConfig(SchemeFNCC, "hadoop")
	base.K = 4
	base.Horizon = 500 * sim.Microsecond
	base.Load = 0.4
	merged, runs, err := RunFCTSweep(base, []string{SchemeFNCC, SchemeDCQCN}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Generated == 0 {
			t.Fatalf("%s/seed%d: no flows generated", r.Scheme, r.Seed)
		}
		if r.Completed < r.Generated*95/100 {
			t.Fatalf("%s/seed%d: only %d/%d completed", r.Scheme, r.Seed, r.Completed, r.Generated)
		}
		if r.OfferedLoad < 0.15 || r.OfferedLoad > 0.8 {
			t.Fatalf("offered load %.2f implausible", r.OfferedLoad)
		}
	}
	fncc := merged[SchemeFNCC].SlowdownDist(0, 100_000)
	dcqcn := merged[SchemeDCQCN].SlowdownDist(0, 100_000)
	if fncc.N() == 0 || dcqcn.N() == 0 {
		t.Fatal("empty slowdown distributions")
	}
	if fncc.P95() > dcqcn.P95()*1.1 {
		t.Errorf("small-flow p95: FNCC %.2f vs DCQCN %.2f", fncc.P95(), dcqcn.P95())
	}

	tables, err := FormatFCTTables("hadoop", merged, []string{SchemeFNCC, SchemeDCQCN})
	if err != nil || !strings.Contains(tables, "p95") {
		t.Fatalf("tables err=%v:\n%s", err, tables)
	}
	_ = FormatHeadlines("hadoop", merged)
}

func TestRunFCTValidation(t *testing.T) {
	cfg := DefaultFCTConfig(SchemeFNCC, "nope")
	if _, err := RunFCT(cfg); err == nil {
		t.Fatal("accepted unknown workload")
	}
	cfg = DefaultFCTConfig("nope", "hadoop")
	if _, err := RunFCT(cfg); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}

func TestSlowdownReduction(t *testing.T) {
	a, b := metrics.NewFCTCollector(), metrics.NewFCTCollector()
	rec := func(c *metrics.FCTCollector, slow float64) {
		c.Record(metrics.FCTRecord{SizeBytes: 50_000, Finish: sim.Time(slow * 1000), Ideal: 1000})
	}
	for i := 0; i < 10; i++ {
		rec(a, 2.0) // scheme
		rec(b, 4.0) // baseline
	}
	if got := SlowdownReduction("p95", a, b, 0, 100_000); got != 0.5 {
		t.Fatalf("reduction = %v", got)
	}
	if got := SlowdownReduction("avg", a, b, 1<<40, 1<<41); got != 0 {
		t.Fatalf("empty bucket reduction = %v", got)
	}
}
