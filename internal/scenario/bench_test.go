package scenario

import (
	"testing"

	"repro/internal/telemetry"
)

// benchFCTSpec is one small Fig 14-style point, identical under both
// backends so the packet/fluid ns/op ratio is the backend speedup on the
// same experiment (cmd/benchguard derives it into BENCH_3.json and CI
// fails if it drops below 50x).
func benchFCTSpec(backend string) Spec {
	return Spec{Kind: KindFCT, Scheme: "FNCC", Backend: backend,
		Topo: TopoSpec{K: 4}, Workload: WorkloadSpec{CDF: "websearch"},
		Load: 0.5, Seed: 2, DurationUs: 500}
}

func benchRun(b *testing.B, sp Spec) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFCTPointPacket is the packet-engine cost of one small FCT point.
func BenchmarkFCTPointPacket(b *testing.B) { benchRun(b, benchFCTSpec(BackendPacket)) }

// BenchmarkFCTPointFluid is the fluid-backend cost of the same point.
func BenchmarkFCTPointFluid(b *testing.B) { benchRun(b, benchFCTSpec(BackendFluid)) }

// benchFCTSpecK8 is the paper-scale k=8 WebSearch point (128 hosts, 2k+
// flows) used by the parallel-speedup gate: heavy enough that per-window
// work dominates barrier cost.
func benchFCTSpecK8(workers int) Spec {
	return Spec{Kind: KindFCT, Scheme: "FNCC",
		Workload: WorkloadSpec{CDF: "websearch"}, Load: 0.5, Seed: 2,
		DurationUs: 300, Workers: workers}
}

// BenchmarkFCTPointPacketK8 is the serial cost of the k=8 point.
func BenchmarkFCTPointPacketK8(b *testing.B) { benchRun(b, benchFCTSpecK8(0)) }

// BenchmarkFCTPointPacketParallel is the same point on the LP-sharded
// executor with 4 workers (bit-identical result). benchguard derives
// packet_parallel_speedup = K8/Parallel into the perf snapshot and CI
// floors it at 2x.
func BenchmarkFCTPointPacketParallel(b *testing.B) { benchRun(b, benchFCTSpecK8(4)) }

// benchMicroSpec is the §5.1 micro-benchmark at 100 Gb/s under FNCC,
// shortened to 400 µs of simulated congestion.
func benchMicroSpec() Spec {
	return Spec{Kind: KindMicro, Scheme: "FNCC", DurationUs: 400}
}

// BenchmarkMicroSteadyState runs the complete micro-benchmark — validate,
// build, 400 µs of simulated congestion, teardown — once per iteration.
// Unlike the engine/forwarding benches this includes all per-run setup, so
// allocs/op is the whole run's allocation budget; the pooling work cut it
// from ~125k to well under 5k per run (see BENCH_2.json for the pinned
// point).
func BenchmarkMicroSteadyState(b *testing.B) {
	sp := benchMicroSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(sp)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["queue_peak_bytes"] <= 0 {
			b.Fatal("no queue buildup: benchmark not exercising the hot path")
		}
	}
}

// BenchmarkMicroTelemetryOn is BenchmarkMicroSteadyState with every packet
// probe class sampling at 10x the base RTT (13 us -> 130 us interval), the
// recommended production cadence. cmd/benchguard pins the ratio of this
// bench to the telemetry-off one at <= 1.05: probes must cost under 5%.
func BenchmarkMicroTelemetryOn(b *testing.B) {
	sp := benchMicroSpec()
	sp.Telemetry = &TelemetrySpec{IntervalUs: 130, Probes: telemetry.PacketProbes()} // 10 RTTs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(sp)
		if err != nil {
			b.Fatal(err)
		}
		if res.Telemetry == nil || res.Telemetry.Samples == 0 {
			b.Fatal("telemetry not sampling: benchmark measures nothing")
		}
	}
}
