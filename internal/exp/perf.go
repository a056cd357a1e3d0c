package exp

import "repro/internal/netsim"

// PerfStats is one run's simulator-performance telemetry: engine event
// count and the efficiency of the event and packet pools. Every runner
// attaches it to its result. All of it is deterministic for a given spec
// (the pool rates and Shard also for a given partition), so it is safe to
// cache; host cost (wall time, CPU, allocations) is not a result and is
// measured by obs.Meter instead.
type PerfStats struct {
	// Events is the number of simulation events the engine fired.
	Events uint64 `json:"events"`
	// EventReuseRate is the engine slot-pool hit rate (≈1 in steady state).
	EventReuseRate float64 `json:"event_reuse_rate"`
	// PoolHitRate is the packet-pool hit rate (≈1 in steady state).
	PoolHitRate float64 `json:"pool_hit_rate"`
	// Shard summarizes the parallel packet executor when the run was
	// sharded; Shard.Shards == 0 for serial runs. Windows and Messages are
	// deterministic for a given topology partition, like Events.
	Shard netsim.ShardStats `json:"shard,omitempty"`
}

// PerfOf reads a finished run's engine and pool counters.
func PerfOf(net *netsim.Network) PerfStats {
	es := net.TotalEngineStats()
	return PerfStats{
		Events:         es.Processed,
		EventReuseRate: es.ReuseRate(),
		PoolHitRate:    net.TotalPoolStats().HitRate(),
		Shard:          net.ShardStats(),
	}
}
