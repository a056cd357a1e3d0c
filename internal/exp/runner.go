package exp

import (
	"runtime"
	"sync"
)

// Budget is the process's parallelism budget: GOMAXPROCS. Every worker-pool
// sizing decision in the repo (the exp sweeps, fnccbench sweeps via the
// harness Runner, the sweepd job pool) funnels through PoolWorkers so the
// budget is spent in exactly one place instead of each call site reading
// GOMAXPROCS for itself.
func Budget() int { return runtime.GOMAXPROCS(0) }

// PoolWorkers resolves a sweep-level worker-pool size when each simulation
// may itself run simWorkers goroutines (the LP-sharded packet executor;
// <= 1 means serial). A requested size <= 0 asks to fill the budget. The
// result is clamped so pool × sim workers never exceeds the budget:
// oversubscribing GOMAXPROCS turns the parallel executor's per-window
// barriers into scheduler thrash that slows every job down. At least one
// pool worker is always granted — a single over-wide job degrades into
// time-slicing rather than refusing to run.
func PoolWorkers(requested, simWorkers int) int {
	if simWorkers < 1 {
		simWorkers = 1
	}
	cap := Budget() / simWorkers
	if cap < 1 {
		cap = 1
	}
	if requested <= 0 || requested > cap {
		return cap
	}
	return requested
}

// ParallelMap runs fn over jobs on a bounded worker pool and returns the
// results in job order. Each job builds and drives its own independent
// simulation Engine, so jobs share nothing; this is where the harness gets
// its parallelism (schemes × seeds × sweep points), keeping the per-run
// simulator single-threaded and deterministic.
func ParallelMap[J, R any](jobs []J, workers int, fn func(J) R) []R {
	if workers <= 0 {
		workers = Budget()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]R, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	if workers <= 1 {
		for i, j := range jobs {
			out[i] = fn(j)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
