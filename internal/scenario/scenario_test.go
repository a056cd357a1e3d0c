package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
)

// goldenSpec exercises every spec field.
func goldenSpec() Spec {
	return Spec{
		Name:       "golden",
		Kind:       KindFCT,
		Scheme:     "FNCC",
		CC:         map[string]float64{"alpha": 1.1, "eta": 0.9},
		Topo:       TopoSpec{K: 4, Oversub: 2},
		Workload:   WorkloadSpec{CDF: "websearch"},
		Load:       0.4,
		Seed:       7,
		DurationUs: 500,
		Collect:    []string{"slowdown_p99", "slowdown_avg"},
	}
}

// TestCanonicalGolden pins the canonical encoding and hash. These are the
// harness's cache keys: changing them silently invalidates every existing
// result cache, so a schema change must update this test deliberately.
func TestCanonicalGolden(t *testing.T) {
	const wantCanonical = `{"kind":"fct","scheme":"FNCC","cc":{"alpha":1.1,"eta":0.9},` +
		`"topo":{"kind":"fattree","k":4,"rate_gbps":100,"oversub":2,"delay_ns":1500},` +
		`"workload":{"cdf":"websearch"},"load":0.4,"seed":7,"duration_us":500,` +
		`"collect":["slowdown_avg","slowdown_p99"]}`
	const wantHash = "sc-9d255570be198529" // fncc-scenario-v2 epoch

	sp := goldenSpec()
	c, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c) != wantCanonical {
		t.Errorf("canonical encoding drifted:\n got %s\nwant %s", c, wantCanonical)
	}
	if h := sp.Hash(); h != wantHash {
		t.Errorf("hash drifted: got %s, want %s", h, wantHash)
	}
	// Hashing twice (map iteration, collect sorting) must be stable.
	if h2 := sp.Hash(); h2 != wantHash {
		t.Errorf("hash unstable across calls: %s", h2)
	}
}

// TestHashIgnoresName: renames must not invalidate cached results; any
// semantic change must.
func TestHashIgnoresName(t *testing.T) {
	a := goldenSpec()
	b := goldenSpec()
	b.Name = "renamed"
	if a.Hash() != b.Hash() {
		t.Error("hash depends on Name")
	}
	b = goldenSpec()
	b.Seed = 8
	if a.Hash() == b.Hash() {
		t.Error("hash ignores Seed")
	}
	// Defaults are part of the identity: an explicit paper default hashes
	// like the sparse spec.
	sparse := Spec{Kind: KindMicro, Scheme: "FNCC"}
	full := Spec{Kind: KindMicro, Scheme: "FNCC",
		Topo:       TopoSpec{Kind: "chain", Switches: 3, Senders: 2, RateGbps: 100, DelayNs: 1500},
		DurationUs: 1200}
	if sparse.Hash() != full.Hash() {
		t.Error("sparse and explicitly-defaulted specs hash differently")
	}
}

// TestSpecRoundTrip: JSON round-trips preserve the spec exactly.
func TestSpecRoundTrip(t *testing.T) {
	for _, e := range Builtin() {
		sp := e.Spec.Normalized()
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sp.Name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", sp.Name, err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Errorf("%s: round-trip drift:\n got %+v\nwant %+v", sp.Name, back, sp)
		}
		if sp.Hash() != back.Hash() {
			t.Errorf("%s: round-trip changed the hash", sp.Name)
		}
	}
}

// TestParseSpecRejectsUnknownFields: typos in spec files fail loudly.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"kind":"micro","scheme":"FNCC","topoo":{}}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

// TestRegistry: the built-ins cover every figure kind plus the new traffic
// patterns, and each entry validates.
func TestRegistry(t *testing.T) {
	entries := Builtin()
	if len(entries) < 8 {
		t.Fatalf("registry has %d entries, want >= 8", len(entries))
	}
	kinds := map[string]bool{}
	for _, e := range entries {
		if e.Spec.Name == "" || e.Desc == "" {
			t.Errorf("registry entry %+v missing name or description", e.Spec)
		}
		if err := e.Spec.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", e.Spec.Name, err)
		}
		kinds[e.Spec.Kind] = true
		if _, err := Lookup(e.Spec.Name); err != nil {
			t.Errorf("Lookup(%q): %v", e.Spec.Name, err)
		}
	}
	for _, k := range Kinds() {
		if !kinds[k] {
			t.Errorf("no builtin scenario of kind %q", k)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup accepted an unknown name")
	}
}

// TestValidateRejects: each class of malformed spec is caught.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown kind", func(s *Spec) { s.Kind = "nope" }},
		{"unknown scheme", func(s *Spec) { s.Scheme = "TCP" }},
		{"unknown scheme on fct", func(s *Spec) { s.Kind = KindFCT; s.Scheme = "nope" }},
		{"unknown scheme on incast", func(s *Spec) { s.Kind = KindIncast; s.Scheme = "nope" }},
		{"bad cc key", func(s *Spec) { s.CC = map[string]float64{"gamma": 1} }},
		{"cc on dcqcn", func(s *Spec) { s.Scheme = "DCQCN"; s.CC = map[string]float64{"alpha": 1} }},
		{"odd fat-tree", func(s *Spec) { s.Kind = KindFCT; s.Topo.K = 5 }},
		{"chain for fct", func(s *Spec) { s.Kind = KindFCT; s.Topo.Kind = "chain" }},
		{"bad load", func(s *Spec) { s.Kind = KindFCT; s.Load = 1.5 }},
		{"bad cdf", func(s *Spec) { s.Kind = KindFCT; s.Workload.CDF = "uniform" }},
		{"bad hop", func(s *Spec) { s.Kind = KindHop; s.Hop = "fourth" }},
		{"fanout 1", func(s *Spec) { s.Kind = KindIncast; s.Workload.Fanout = 1 }},
		{"one micro sender", func(s *Spec) { s.Topo.Senders = 1 }},
		{"one fairness sender", func(s *Spec) { s.Kind = KindFairness; s.Topo.Senders = 1 }},
		{"bad notify hop", func(s *Spec) { s.Kind = KindNotify; s.Hop = "fourth" }},
		{"senders on notify", func(s *Spec) { s.Kind = KindNotify; s.Topo.Senders = 3 }},
		{"negative duration", func(s *Spec) { s.DurationUs = -5 }},
		{"oversub below 1", func(s *Spec) { s.Kind = KindFCT; s.Topo.Oversub = 0.5 }},
		{"bad collect", func(s *Spec) { s.Collect = []string{"latency"} }},
		// Knobs the kind's runner ignores are rejected, not silently
		// dropped (they would mint a fresh cache key for the same run).
		{"seed on micro", func(s *Spec) { s.Seed = 1 }},
		{"load on micro", func(s *Spec) { s.Load = 0.5 }},
		{"hop on micro", func(s *Spec) { s.Hop = "last" }},
		{"cdf on incast", func(s *Spec) { s.Kind = KindIncast; s.Workload.CDF = "websearch" }},
		{"switches not 3", func(s *Spec) { s.Topo.Switches = 6 }},
		{"k on chain kind", func(s *Spec) { s.Topo.K = 4 }},
		{"delay on fct", func(s *Spec) { s.Kind = KindFCT; s.Topo.DelayNs = 5000 }},
		{"negative shift", func(s *Spec) { s.Kind = KindPermutation; s.Workload.Shift = -1 }},
		{"negative burst", func(s *Spec) { s.Kind = KindMixed; s.Workload.BurstEveryUs = -1 }},
		{"negative flow bytes", func(s *Spec) { s.Kind = KindIncast; s.Workload.FlowBytes = -1 }},
		{"duration on fairness", func(s *Spec) { s.Kind = KindFairness; s.DurationUs = 100 }},
		// Non-finite floats must be rejected here: json.Marshal cannot
		// encode them, so letting one through would panic in Hash.
		{"NaN load", func(s *Spec) { s.Kind = KindFCT; s.Load = math.NaN() }},
		{"NaN oversub", func(s *Spec) { s.Kind = KindFCT; s.Topo.Oversub = math.NaN() }},
		{"NaN cc override", func(s *Spec) { s.CC = map[string]float64{"alpha": math.NaN()} }},
		{"Inf cc override", func(s *Spec) { s.CC = map[string]float64{"beta": math.Inf(1)} }},
	}
	for _, tc := range cases {
		sp := Spec{Kind: KindMicro, Scheme: "FNCC"}
		tc.mut(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	if err := (Spec{Kind: KindMicro, Scheme: "FNCC"}).Validate(); err != nil {
		t.Errorf("minimal valid spec rejected: %v", err)
	}
}

// TestBuildSchemeOverrides: overrides land in the built scheme and bad ones
// error.
func TestBuildSchemeOverrides(t *testing.T) {
	s, err := BuildScheme(exp.SchemeFNCC, map[string]float64{
		"alpha": 1.2, "beta": 0.8, "lhcs": 0, "eta": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != exp.SchemeFNCC {
		t.Errorf("scheme name %q", s.Name)
	}
	if _, err := BuildScheme(exp.SchemeHPCC, map[string]float64{"eta": 0.9}); err != nil {
		t.Errorf("hpcc eta override: %v", err)
	}
	if _, err := BuildScheme(exp.SchemeHPCC, map[string]float64{"alpha": 1.1}); err == nil {
		t.Error("hpcc accepted an fncc-only override")
	}
	if _, err := BuildScheme(exp.SchemeRoCC, map[string]float64{"eta": 0.9}); err == nil {
		t.Error("rocc accepted overrides")
	}
}

// TestRunEveryKind executes one cheap scenario per kind end to end and
// checks the metrics each kind promises.
func TestRunEveryKind(t *testing.T) {
	cases := []struct {
		spec Spec
		want []string
	}{
		{Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 600},
			[]string{"queue_peak_bytes", "mean_util", "first_slowdown_us"}},
		{Spec{Kind: KindHop, Scheme: "FNCC", Hop: "middle", DurationUs: 500},
			[]string{"queue_peak_bytes", "mean_util", "lhcs_triggers"}},
		{Spec{Kind: KindFairness, Scheme: "FNCC", Topo: TopoSpec{Senders: 2},
			Workload: WorkloadSpec{StaggerUs: 300}},
			[]string{"jain_all_active", "duration_us"}},
		{Spec{Kind: KindFCT, Scheme: "FNCC", Topo: TopoSpec{K: 4}, DurationUs: 300, Seed: 2},
			[]string{"completed", "generated", "slowdown_avg", "offered_load"}},
		{Spec{Kind: KindIncast, Scheme: "FNCC",
			Workload: WorkloadSpec{Fanout: 4, FlowBytes: 200_000}, DurationUs: 20_000},
			[]string{"queue_peak_bytes", "all_done_us", "jain_min"}},
		{Spec{Kind: KindPermutation, Scheme: "FNCC", Topo: TopoSpec{K: 4},
			Workload: WorkloadSpec{FlowBytes: 200_000}},
			[]string{"completed", "makespan_us", "slowdown_avg", "completed_all"}},
		{Spec{Kind: KindAllToAll, Scheme: "FNCC", Topo: TopoSpec{K: 2},
			Workload: WorkloadSpec{FlowBytes: 100_000}},
			[]string{"completed", "makespan_us", "slowdown_avg"}},
		{Spec{Kind: KindMixed, Scheme: "FNCC", Topo: TopoSpec{K: 4}, DurationUs: 600,
			Workload: WorkloadSpec{Fanout: 4, FlowBytes: 20_000, BurstEveryUs: 200}},
			[]string{"completed", "burst_flows", "slowdown_avg"}},
		{Spec{Kind: KindNotify, Scheme: "FNCC", Hop: "first"},
			[]string{"notify_latency_us"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.spec.Kind, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Hash != tc.spec.Hash() {
				t.Errorf("result hash %s != spec hash %s", res.Hash, tc.spec.Hash())
			}
			for _, m := range tc.want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("metric %q missing (have %v)", m, res.MetricNames())
				}
			}
			for m := range res.Metrics {
				if !knownMetrics[m] {
					t.Errorf("emitted metric %q not in knownMetrics", m)
				}
			}
		})
	}
}

// TestRunCollectFilters: Collect keeps only the requested metrics.
func TestRunCollectFilters(t *testing.T) {
	sp := Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 400,
		Collect: []string{"queue_peak_bytes", "drops"}}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 2 {
		t.Fatalf("collect kept %v, want exactly queue_peak_bytes+drops", res.MetricNames())
	}
}

// TestPermutationCompletes: the pattern is admissible, so every flow must
// finish well before the deadline and the pattern must actually cross pods.
func TestPermutationCompletes(t *testing.T) {
	res, err := Run(Spec{Kind: KindPermutation, Scheme: "HPCC",
		Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{FlowBytes: 100_000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["completed_all"] != 1 {
		t.Error("permutation missed its deadline")
	}
	if res.Metrics["completed"] != 16 {
		t.Errorf("completed %v flows, want 16", res.Metrics["completed"])
	}
}

// TestRunnersCoverKinds: RunWithSink indexes runners without a fallback,
// so the table must have a row per backend, a packet runner for every kind
// Validate accepts, and fluid runners only for real kinds.
func TestRunnersCoverKinds(t *testing.T) {
	if len(runners) != len(Backends()) {
		t.Errorf("runners has %d backends, want %v", len(runners), Backends())
	}
	for _, k := range Kinds() {
		if runners[BackendPacket][k] == nil {
			t.Errorf("kind %q has no packet runner", k)
		}
	}
	if len(runners[BackendPacket]) != len(Kinds()) {
		t.Errorf("packet row has %d runners for %d kinds", len(runners[BackendPacket]), len(Kinds()))
	}
	for k := range runners[BackendFluid] {
		if runners[BackendPacket][k] == nil {
			t.Errorf("fluid runner for unknown kind %q", k)
		}
	}
}
