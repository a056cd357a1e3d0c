package exp_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/scenario"
)

// The figure experiments run as scenario kinds; these tests check that
// scenario.Run refuses the inputs each figure's experiment cannot run.

func TestRunMicroValidation(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindMicro, Scheme: exp.SchemeFNCC,
		Topo: scenario.TopoSpec{Senders: 1}}
	if _, err := scenario.Run(sp); err == nil {
		t.Fatal("accepted 1 sender")
	}
	sp = scenario.Spec{Kind: scenario.KindMicro, Scheme: "nope"}
	if _, err := scenario.Run(sp); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}

func TestRunHopValidation(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindHop, Scheme: exp.SchemeFNCC, Hop: "nowhere"}
	if _, err := scenario.Run(sp); err == nil {
		t.Fatal("accepted bad position")
	}
}

func TestRunFairnessValidation(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindFairness, Scheme: exp.SchemeFNCC,
		Topo: scenario.TopoSpec{Senders: 1}}
	if _, err := scenario.Run(sp); err == nil {
		t.Fatal("accepted 1 sender")
	}
}

func TestRunFCTValidation(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindFCT, Scheme: exp.SchemeFNCC,
		Workload: scenario.WorkloadSpec{CDF: "nope"}}
	if _, err := scenario.Run(sp); err == nil {
		t.Fatal("accepted unknown workload")
	}
	sp = scenario.Spec{Kind: scenario.KindFCT, Scheme: "nope",
		Workload: scenario.WorkloadSpec{CDF: "hadoop"}}
	if _, err := scenario.Run(sp); err == nil {
		t.Fatal("accepted unknown scheme")
	}
	if _, _, err := scenario.RunFlows(sp); err == nil {
		t.Fatal("RunFlows accepted unknown scheme")
	}
}

func TestRunIncastValidation(t *testing.T) {
	sp := scenario.Spec{Kind: scenario.KindIncast, Scheme: exp.SchemeFNCC,
		Workload: scenario.WorkloadSpec{Fanout: 1}}
	if _, err := scenario.Run(sp); err == nil {
		t.Fatal("accepted fanout 1")
	}
	sp = scenario.Spec{Kind: scenario.KindIncast, Scheme: "nope"}
	if _, err := scenario.Run(sp); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}
