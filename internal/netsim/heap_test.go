package netsim_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// maxFCTSlots bounds the event slab of the k=4 WebSearch FCT point below.
// The run re-arms the hosts' go-back-N timers on 9,580 ACKs; with every
// cancelled timer left in the heap until it surfaced, the slab grew to 9,581
// slots serial and 9,613 summed over the five shards. Compaction plus
// per-port delivery lanes hold it at 123 and 229.
const maxFCTSlots = 300

// TestFCTHeapStaysCompact pins the event-slab size of a small fat-tree FCT
// run, serial and sharded. Slots is deterministic, so a bound far below the
// tombstone-bloated size catches any return of unswept cancelled timers or
// of one heap entry per in-flight frame.
func TestFCTHeapStaysCompact(t *testing.T) {
	const horizon = 60 * sim.Microsecond
	for _, workers := range []int{0, 2} {
		scheme, err := exp.NewScheme(exp.SchemeFNCC)
		if err != nil {
			t.Fatal(err)
		}
		ncfg := netsim.DefaultConfig()
		ncfg.Seed = 1
		ft, err := topo.BuildFatTree(ncfg, scheme, topo.FatTreeOpts{
			K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cdf, _ := workload.ByName("websearch")
		flows, err := workload.Generate(workload.GenConfig{
			Hosts: len(ft.Hosts), AccessBps: 100e9, Load: 0.5, CDF: cdf,
			Horizon: horizon, Seed: 1, FirstID: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			ft.AddFlow(f.ID, f.SrcHost, f.DstHost, f.SizeBytes, f.Start)
		}
		if !ft.Net.RunToCompletion(60 * horizon) {
			t.Fatalf("workers=%d: flows did not complete", workers)
		}
		st := ft.Net.TotalEngineStats()
		if st.Canceled < 1000 {
			t.Fatalf("workers=%d: only %d cancels; the run no longer exercises timer churn",
				workers, st.Canceled)
		}
		if st.Slots > maxFCTSlots {
			t.Errorf("workers=%d: event slab grew to %d slots (bound %d, %d cancels)",
				workers, st.Slots, maxFCTSlots, st.Canceled)
		}
	}
}
