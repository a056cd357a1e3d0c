package exp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Scenario tests beyond the paper's figures: classic congestion-control
// sanity checks that a credible CC implementation must pass.

// TestParkingLot runs the parking-lot topology: a long flow crossing all
// three hops competes with short-path flows joining at each switch. The
// long-path flow must not be starved (it should get a meaningful share of
// its bottleneck), and no queue may grow unboundedly.
func TestParkingLot(t *testing.T) {
	for _, schemeName := range []string{SchemeFNCC, SchemeHPCC} {
		opts := topo.DefaultChainOpts(3)
		opts.SenderAttach = []int{0, 1, 2} // long flow + one joiner per hop
		c := topo.MustChain(netsim.DefaultConfig(), MustScheme(schemeName), opts)

		long := c.AddFlow(1, 0, 1<<40, 0)
		c.AddFlow(2, 1, 1<<40, 0)
		c.AddFlow(3, 2, 1<<40, 0)
		c.Net.RunUntil(3 * sim.Millisecond)

		// Long flow's goodput over the last millisecond.
		acked0 := long.SndUna()
		c.Net.RunUntil(4 * sim.Millisecond)
		goodput := float64(long.SndUna()-acked0) * 8 / sim.Millisecond.Seconds()

		// Fair share at its tightest constraint is B/2 per hop; accepted
		// band is wide — the assertion is "not starved, not dominating".
		if goodput < 15e9 {
			t.Errorf("%s: long flow starved in parking lot: %.1fG", schemeName, goodput/1e9)
		}
		if goodput > 70e9 {
			t.Errorf("%s: long flow dominating: %.1fG", schemeName, goodput/1e9)
		}
		if c.Net.Drops.N != 0 {
			t.Errorf("%s: drops in parking lot", schemeName)
		}
	}
}

// TestFlowChurn exercises rapid join/leave: 50 short flows arriving every
// ~20us over a shared bottleneck; everything must complete and the FCT
// collector must be consistent.
func TestFlowChurn(t *testing.T) {
	c := topo.MustChain(netsim.DefaultConfig(), MustScheme(SchemeFNCC), topo.DefaultChainOpts(4))
	n := 50
	for i := 0; i < n; i++ {
		c.AddFlow(uint64(i+1), i%4, 100_000, sim.Time(i)*20*sim.Microsecond)
	}
	if !c.Net.RunToCompletion(sim.Second) {
		t.Fatal("churn flows incomplete")
	}
	if c.Net.FCT.N() != n {
		t.Fatalf("FCT records %d != %d", c.Net.FCT.N(), n)
	}
	for _, r := range c.Net.FCT.Records {
		if r.Finish <= r.Start {
			t.Fatalf("record %d: finish %v <= start %v", r.FlowID, r.Finish, r.Start)
		}
		if r.Slowdown() < 1 {
			t.Fatalf("record %d: slowdown %v < 1", r.FlowID, r.Slowdown())
		}
	}
}
