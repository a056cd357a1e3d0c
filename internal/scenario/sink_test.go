package scenario

import (
	"math"
	"testing"

	"repro/internal/obs"
)

type recordingSink struct {
	calls  int
	spec   Spec
	hash   string
	events float64
	keys   map[string]bool
	host   obs.Usage
}

func (s *recordingSink) ObserveRun(sp Spec, hash string, m map[string]float64, host obs.Usage) {
	s.calls++
	s.host = host
	s.spec = sp
	s.hash = hash
	s.events = m["engine_events"]
	s.keys = map[string]bool{}
	for k := range m {
		s.keys[k] = true
	}
}

// TestRunWithSink pins the sink contract: one call per run, the normalized
// spec and final hash, and the full pre-Collect metric map — a Collect
// filter that strips the perf columns from the result must not strip them
// from the sink, or the obs registry would go blind exactly when sweeps
// trim their output.
func TestRunWithSink(t *testing.T) {
	sp := Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 50,
		Collect: []string{"engine_events"}}
	sink := &recordingSink{}
	res, err := RunWithSink(sp, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.calls != 1 {
		t.Fatalf("sink called %d times, want 1", sink.calls)
	}
	if sink.hash != res.Hash {
		t.Errorf("sink hash %s != result hash %s", sink.hash, res.Hash)
	}
	if sink.spec.Topo.Senders == 0 {
		t.Error("sink saw an un-normalized spec")
	}
	if sink.events <= 0 {
		t.Errorf("sink engine_events = %g, want > 0", sink.events)
	}
	if sink.host.Wall <= 0 || sink.host.Mallocs == 0 {
		t.Errorf("sink host usage not metered: %+v", sink.host)
	}
	if !sink.keys["engine_events"] || !sink.keys["mean_util"] {
		t.Errorf("sink metric map missing pre-Collect keys: %v", sink.keys)
	}
	if len(res.Metrics) != 1 {
		t.Errorf("Collect filter broken: result has %d metrics", len(res.Metrics))
	}
	if res.Metrics["engine_events"] <= 0 {
		t.Error("collected metric missing from result")
	}
}

// TestRunWithSinkFluid covers the fluid dispatch path's sink call and the
// fluid_* pass counters the obs layer accumulates.
func TestRunWithSinkFluid(t *testing.T) {
	sp := Spec{Kind: KindFCT, Scheme: "FNCC", Backend: BackendFluid,
		Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "websearch"},
		Load: 0.3, DurationUs: 200}
	sink := &recordingSink{}
	if _, err := RunWithSink(sp, sink); err != nil {
		t.Fatal(err)
	}
	if sink.calls != 1 {
		t.Fatalf("sink called %d times, want 1", sink.calls)
	}
	if !sink.keys["fluid_full_passes"] {
		t.Errorf("fluid sink map lacks fluid_full_passes: %v", sink.keys)
	}
}

// TestRunNilSinkIdentical pins that attaching a sink changes nothing about
// the result itself: Run and RunWithSink produce bit-identical metrics.
func TestRunNilSinkIdentical(t *testing.T) {
	sp := Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 50}
	a, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWithSink(sp, &recordingSink{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash || len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("result identity differs: %s/%d vs %s/%d", a.Hash, len(a.Metrics), b.Hash, len(b.Metrics))
	}
	for k, v := range a.Metrics {
		if math.Float64bits(v) != math.Float64bits(b.Metrics[k]) {
			t.Errorf("metric %s differs: %g vs %g", k, v, b.Metrics[k])
		}
	}
}
