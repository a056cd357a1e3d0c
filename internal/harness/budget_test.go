package harness

import (
	"testing"

	"repro/internal/scenario"
)

// TestMaxSimWorkers checks the sweep scan used to size shared pools.
func TestMaxSimWorkers(t *testing.T) {
	if got := MaxSimWorkers(nil); got != 0 {
		t.Fatalf("MaxSimWorkers(nil) = %d, want 0", got)
	}
	specs := []scenario.Spec{
		{Kind: scenario.KindMicro, Scheme: "FNCC"},
		{Kind: scenario.KindMicro, Scheme: "FNCC", Workers: 4},
		{Kind: scenario.KindMicro, Scheme: "FNCC", Workers: 2},
	}
	if got := MaxSimWorkers(specs); got != 4 {
		t.Fatalf("MaxSimWorkers = %d, want 4", got)
	}
}
