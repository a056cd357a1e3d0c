package harness

import "repro/internal/scenario"

// MaxSimWorkers scans a sweep's points for the widest per-simulation worker
// count, the simWorkers input to exp.PoolWorkers (0 when every point is serial).
func MaxSimWorkers(specs []scenario.Spec) int {
	w := 0
	for _, sp := range specs {
		if sp.Workers > w {
			w = sp.Workers
		}
	}
	return w
}
