package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelMapOrdering: results land at their job's index regardless of
// worker interleaving.
func TestParallelMapOrdering(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{0, 1, 2, 7, 100, 1000} {
		out := ParallelMap(jobs, workers, func(j int) int { return j * j })
		if len(out) != len(jobs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(jobs))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestParallelMapZeroJobs: no jobs means an empty, non-nil result and no
// worker goroutines left behind.
func TestParallelMapZeroJobs(t *testing.T) {
	out := ParallelMap(nil, 8, func(j int) int { t.Fatal("fn called"); return 0 })
	if out == nil || len(out) != 0 {
		t.Fatalf("got %v, want empty slice", out)
	}
}

// TestParallelMapWorkerClamp: never more concurrent fn calls than jobs, nor
// than the requested worker count.
func TestParallelMapWorkerClamp(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	jobs := make([]int, 30)
	ParallelMap(jobs, 4, func(int) int {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		runtime.Gosched()
		cur.Add(-1)
		return 0
	})
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent workers, want <= 4", p)
	}

	// More workers than jobs: must not deadlock and must still complete.
	out := ParallelMap([]int{1, 2}, 64, func(j int) int { return j })
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("clamped run returned %v", out)
	}
}

// TestParallelMapSerialFallback: workers <= 1 runs inline, in order.
func TestParallelMapSerialFallback(t *testing.T) {
	var order []int
	jobs := []int{10, 20, 30}
	ParallelMap(jobs, 1, func(j int) int {
		order = append(order, j) // safe: serial path runs on one goroutine
		return j
	})
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Fatalf("serial path ran out of order: %v", order)
	}
}

// TestPoolWorkers pins the oversubscription guard: pool × simWorkers never
// exceeds GOMAXPROCS, requested <= 0 fills the budget, and at least one
// worker is always granted even when a single job is wider than the budget.
func TestPoolWorkers(t *testing.T) {
	budget := runtime.GOMAXPROCS(0)
	if got := Budget(); got != budget {
		t.Fatalf("Budget() = %d, want GOMAXPROCS %d", got, budget)
	}

	cases := []struct {
		name                        string
		requested, simWorkers, want int
	}{
		{"default fills budget", 0, 0, budget},
		{"negative fills budget", -3, 1, budget},
		{"one is one", 1, 0, 1},
		{"over-ask clamps to budget", budget + 7, 1, budget},
		{"sim workers shrink the pool", 0, budget, 1},
		{"wider than budget still grants one", 4, 2 * budget, 1},
	}
	for _, tc := range cases {
		if got := PoolWorkers(tc.requested, tc.simWorkers); got != tc.want {
			t.Errorf("%s: PoolWorkers(%d, %d) = %d, want %d",
				tc.name, tc.requested, tc.simWorkers, got, tc.want)
		}
	}

	// The invariant itself, across a small grid.
	for req := -1; req <= budget+2; req++ {
		for sw := 0; sw <= budget+2; sw++ {
			pool := PoolWorkers(req, sw)
			eff := sw
			if eff < 1 {
				eff = 1
			}
			if pool < 1 {
				t.Fatalf("PoolWorkers(%d, %d) = %d < 1", req, sw, pool)
			}
			if pool > 1 && pool*eff > budget {
				t.Fatalf("PoolWorkers(%d, %d) = %d oversubscribes: %d × %d > budget %d",
					req, sw, pool, pool, eff, budget)
			}
		}
	}
}
