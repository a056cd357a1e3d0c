package scenario

import (
	"math"
	"testing"
)

// The values below were produced by the pre-refactor tree (commit 95e041c,
// heap-allocated events and per-frame packet allocation) and are compared
// bit-exactly: the pooled engine and pooled packets must change *nothing*
// observable — same event order, same byte counts, same floating-point
// accumulation — only the speed. Hex float literals pin the exact IEEE-754
// payloads.
//
// Perf telemetry (engine_events, pool_hit_rate...) is absent: it pins the
// engine, not the model.

var goldenMicro = map[string]map[string]float64{
	"FNCC": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.35p+08, // 309
		// mean_util moved from 0x1.f343dcee87408p-01 when the engine
		// adopted the canonical (at, schedAt, key, seq) collision order:
		// simultaneous link deliveries now fire in port-UID order instead of
		// historical scheduling order, which is what lets the sharded
		// parallel executor reproduce serial runs bit-exactly. One FNCC ACK
		// in this scenario collides with a data delivery and reads INT state
		// one frame earlier. Every other metric here is unaffected.
		"mean_util":    0x1.ee571484a397p-01,
		"pause_frames": 0x0p+00,
		// queue_peak_bytes = 103224
		"queue_peak_bytes": 0x1.9338p+16,
		"resume_frames":    0x0p+00,
	},
	"FNCC-noLHCS": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.36p+08, // 310
		"mean_util":         0x1.e169866eadfa9p-01,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.ec2ap+16, // 125994
		"resume_frames":     0x0p+00,
	},
	"HPCC": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.3fp+08, // 319
		"mean_util":         0x1.c63e749a9225ep-01,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.374fp+17, // 159390
		"resume_frames":     0x0p+00,
	},
	"DCQCN": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.4ep+08, // 334
		"mean_util":         0x1.0018b5823e6eap+00,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.82e98p+18, // 396198
		"resume_frames":     0x0p+00,
	},
	"RoCC": {
		"drops":             0x0p+00,
		"first_slowdown_us": -0x1p+00, // never
		"mean_util":         0x1.0018b5823e6eap+00,
		"pause_frames":      0x1p+01,       // 2
		"queue_peak_bytes":  0x1.0016ap+20, // 1048938
		"resume_frames":     0x0p+00,
	},
	"Timely": {
		"drops":             0x0p+00,
		"first_slowdown_us": 0x1.4dp+08, // 333
		"mean_util":         0x1.0018b5823e6eap+00,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.c71a8p+18, // 466026
		"resume_frames":     0x0p+00,
	},
	"Swift": {
		"drops":             0x0p+00,
		"first_slowdown_us": -0x1p+00,
		"mean_util":         0x1.0018b5823e6eap+00,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x1.9f14p+17, // 212520
		"resume_frames":     0x0p+00,
	},
	"ExpressPass": {
		"drops":             0x0p+00,
		"first_slowdown_us": -0x1p+00,
		"mean_util":         0x1.98c4fa54cff5bp-04,
		"pause_frames":      0x0p+00,
		"queue_peak_bytes":  0x0p+00,
		"resume_frames":     0x0p+00,
	},
}

var goldenIncast = map[string]map[string]float64{
	"FNCC": {
		"all_done_us":      0x1.6fdba0a526959p+05, // 45.98224
		"jain_min":         0x1.ffc83d218cd71p-01,
		"lhcs_triggers":    0x1.3bp+08, // 315
		"pause_frames":     0x0p+00,
		"queue_peak_bytes": 0x1.a4ea8p+18, // 431018
	},
	"DCQCN": {
		"all_done_us":      0x1.6fdba0a526959p+05,
		"jain_min":         0x1.c924924924925p-01,
		"lhcs_triggers":    0x0p+00,
		"pause_frames":     0x0p+00,
		"queue_peak_bytes": 0x1.a4ea8p+18,
	},
}

func checkGolden(t *testing.T, label string, got, want map[string]float64) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: metric %q missing", label, k)
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %s = %x (%v), pre-refactor tree produced %x (%v)",
				label, k, g, g, w, w)
		}
	}
}

// TestGoldenMicroDeterminism runs the micro scenario for every scheme and
// demands bit-identical metrics versus the pre-refactor tree.
func TestGoldenMicroDeterminism(t *testing.T) {
	for scheme, want := range goldenMicro {
		sp := Spec{
			Name: "golden-micro", Kind: KindMicro, Scheme: scheme,
			Topo:       TopoSpec{Senders: 2, RateGbps: 100},
			DurationUs: 400,
		}
		res, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		checkGolden(t, "micro/"+scheme, res.Metrics, want)
	}
}

// TestGoldenIncastDeterminism covers a second kind — bursty many-to-one
// with PFC interplay — for a window-based and a rate-based scheme.
func TestGoldenIncastDeterminism(t *testing.T) {
	for scheme, want := range goldenIncast {
		sp := Spec{
			Name: "golden-incast", Kind: KindIncast, Scheme: scheme,
			Topo:       TopoSpec{RateGbps: 100},
			Workload:   WorkloadSpec{Fanout: 8, FlowBytes: 64_000},
			DurationUs: 2000,
		}
		res, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		checkGolden(t, "incast/"+scheme, res.Metrics, want)
	}
}

// TestGoldenRunTwiceIdentical guards run-to-run determinism within this
// tree: two executions of the same spec (fresh engine + pools each) must
// agree bit-exactly on every metric.
func TestGoldenRunTwiceIdentical(t *testing.T) {
	sp := Spec{
		Kind: KindMicro, Scheme: "FNCC",
		Topo:       TopoSpec{Senders: 3, RateGbps: 100},
		DurationUs: 300,
	}
	a, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Errorf("run-to-run key count drift: %d vs %d", len(a.Metrics), len(b.Metrics))
	}
	for k, va := range a.Metrics {
		if math.Float64bits(va) != math.Float64bits(b.Metrics[k]) {
			t.Errorf("run-to-run drift on %s: %v vs %v", k, va, b.Metrics[k])
		}
	}
}

// goldenNotify is the Fig 2/12 notification-latency matrix (µs) at the
// registry's notify defaults, as the exp notify runner printed it before
// it became a scenario kind.
var goldenNotify = map[string]map[string]float64{
	"FNCC": {"first": 9.0, "middle": 9.8, "last": 6.8},
	"HPCC": {"first": 18.6, "middle": 16.8, "last": 15.4},
}

// TestGoldenNotifyLatency pins notify_latency_us bit-exactly per scheme
// and congested hop.
func TestGoldenNotifyLatency(t *testing.T) {
	for scheme, hops := range goldenNotify {
		for hop, want := range hops {
			res, err := Run(Spec{Kind: KindNotify, Scheme: scheme, Hop: hop})
			if err != nil {
				t.Fatalf("%s@%s: %v", scheme, hop, err)
			}
			checkGolden(t, "notify/"+scheme+"@"+hop, res.Metrics,
				map[string]float64{"notify_latency_us": want})
		}
	}
}

// TestNotifyKindOrdering checks the paper's claims on the notify kind:
// FNCC's first-hop notification undercuts HPCC's, and FNCC reacts within
// one base RTT of the M=3 dumbbell at 100G (~13.5 µs) at every hop.
func TestNotifyKindOrdering(t *testing.T) {
	latency := func(scheme, hop string) float64 {
		res, err := Run(Spec{Kind: KindNotify, Scheme: scheme, Hop: hop})
		if err != nil {
			t.Fatal(err)
		}
		l := res.Metrics["notify_latency_us"]
		if l < 0 {
			t.Fatalf("%s@%s never reacted", scheme, hop)
		}
		return l
	}
	if f, h := latency("FNCC", "first"), latency("HPCC", "first"); f >= h {
		t.Errorf("first-hop latency: FNCC %vus !< HPCC %vus", f, h)
	}
	for _, hop := range []string{"first", "middle", "last"} {
		if l := latency("FNCC", hop); l >= 13.5 {
			t.Errorf("FNCC@%s notification %vus is not sub-RTT (13.5us)", hop, l)
		}
	}
}

// goldenHop pins the Fig 13a-c hop-location matrix at the registry's hop
// defaults (800 µs, flow 1 joins at 300 µs and drains), keyed by scheme
// and congested hop.
var goldenHop = map[string]map[string]map[string]float64{
	"HPCC": {
		"first": {
			"queue_peak_bytes": 0x1.374fp+17, // 159390
			"mean_util":        0x1.bf3a0ec7a9fbep-01,
			"lhcs_triggers":    0x0p+00,
		},
		"middle": {
			"queue_peak_bytes": 0x1.4fc3p+17, // 171910
			"mean_util":        0x1.bfa1be4725e98p-01,
			"lhcs_triggers":    0x0p+00,
		},
		"last": {
			"queue_peak_bytes": 0x1.593cp+17, // 176760
			"mean_util":        0x1.ba39d50e51a7ap-01,
			"lhcs_triggers":    0x0p+00,
		},
	},
	"FNCC": {
		"first": {
			"queue_peak_bytes": 0x1.9338p+16, // 103224
			"mean_util":        0x1.b889cd5c9636bp-01,
			"lhcs_triggers":    0x1.4p+04, // 20
		},
		"middle": {
			"queue_peak_bytes": 0x1.f806p+16, // 129030
			"mean_util":        0x1.a7499a182ebccp-01,
			"lhcs_triggers":    0x1.dp+04, // 29
		},
		"last": {
			"queue_peak_bytes": 0x1.4c1p+16, // 85008
			"mean_util":        0x1.ccc48308e3573p-01,
			"lhcs_triggers":    0x1.ecp+06, // 123
		},
	},
	"FNCC-noLHCS": {
		"last": {
			"queue_peak_bytes": 0x1.3d3dp+17, // 162426
			"mean_util":        0x1.93ed4a74d9ec1p-01,
			"lhcs_triggers":    0x0p+00,
		},
	},
}

// TestGoldenHopDeterminism pins the hop kind bit-exactly per scheme and
// congested hop.
func TestGoldenHopDeterminism(t *testing.T) {
	for scheme, hops := range goldenHop {
		for hop, want := range hops {
			res, err := Run(Spec{Kind: KindHop, Scheme: scheme, Hop: hop})
			if err != nil {
				t.Fatalf("%s@%s: %v", scheme, hop, err)
			}
			checkGolden(t, "hop/"+scheme+"@"+hop, res.Metrics, want)
		}
	}
}

// goldenFairness pins the Fig 13e staggered join/leave run at a 300 µs
// stagger.
var goldenFairness = map[string]map[string]float64{
	"FNCC": {
		"jain_all_active": 0x1.cdea1a0b38849p-01,
		"duration_us":     0x1.2cp+11, // 2400
	},
	"HPCC": {
		"jain_all_active": 0x1.85f668ab32f8bp-01,
		"duration_us":     0x1.2cp+11,
	},
}

// TestGoldenFairnessDeterminism pins the fairness kind bit-exactly.
func TestGoldenFairnessDeterminism(t *testing.T) {
	for scheme, want := range goldenFairness {
		res, err := Run(Spec{Kind: KindFairness, Scheme: scheme,
			Workload: WorkloadSpec{StaggerUs: 300}})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		checkGolden(t, "fairness/"+scheme, res.Metrics, want)
	}
}

// goldenFCT pins the packet FCT point of BenchmarkFCTPointPacket (k=4,
// WebSearch at 50% load, seed 2, 500 µs of arrivals).
var goldenFCT = map[string]float64{
	"completed":       0x1p+05, // 32
	"generated":       0x1p+05, // 32
	"offered_load":    0x1.bcbb39d25eb21p-04,
	"pause_frames":    0x0p+00,
	"drops":           0x0p+00,
	"slowdown_avg":    0x1.4492f8ec8c5bep+00,
	"slowdown_median": 0x1.149fcd091c5b6p+00,
	"slowdown_p95":    0x1.f08ca4e7c2777p+00,
	"slowdown_p99":    0x1.0cd9abbdfb177p+01,
}

// TestGoldenFCTDeterminism pins the packet fct kind bit-exactly.
func TestGoldenFCTDeterminism(t *testing.T) {
	res, err := Run(benchFCTSpec(BackendPacket))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fct/FNCC", res.Metrics, goldenFCT)
}
