// fctsweep regenerates the paper's Figs 14 and 15: FCT slowdown tables
// (average / median / p95 / p99 per flow-size bucket) on a k-ary fat-tree
// under WebSearch or FB_Hadoop traffic, repeated over seeds and averaged —
// §5.5's methodology. Each (scheme, seed) point is an fct scenario spec;
// the tables merge every seed's flow records per scheme. Paper scale is
// -k 8 -ms 10+ -seeds 5; defaults are sized for a laptop run.
//
// Example:
//
//	fctsweep -wl websearch -k 8 -ms 5 -seeds 3 -load 0.5
//	fctsweep -k 4 -wl hadoop -ms 1 -seeds 2   # small k=4 comparison
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

func main() {
	wl := flag.String("wl", "websearch", "workload: websearch | hadoop")
	k := flag.Int("k", 8, "fat-tree arity (paper: 8 -> 128 hosts)")
	ms := flag.Float64("ms", 2, "arrival horizon, milliseconds (whole microseconds)")
	load := flag.Float64("load", 0.5, "average access-link load")
	seeds := flag.Int("seeds", 2, "number of repetitions (paper: 5)")
	schemes := flag.String("schemes", "DCQCN,HPCC,FNCC", "comma-separated schemes")
	flag.Parse()
	if err := run(*wl, *k, *ms, *load, *seeds, *schemes); err != nil {
		fmt.Fprintln(os.Stderr, "fctsweep:", err)
		os.Exit(1)
	}
}

func run(wl string, k int, ms, load float64, seeds int, schemes string) error {
	var names []string
	for _, s := range strings.Split(schemes, ",") {
		if s != "" {
			names = append(names, s)
		}
	}
	var specs []scenario.Spec
	for _, s := range names {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			specs = append(specs, scenario.Spec{Kind: scenario.KindFCT, Scheme: s,
				Topo: scenario.TopoSpec{K: k}, Workload: scenario.WorkloadSpec{CDF: wl},
				Load: load, Seed: seed, DurationUs: int64(math.Round(ms * 1000))})
		}
	}

	fmt.Printf("fat-tree k=%d (%d hosts), %s @ %.0f%% load, %.1fms arrivals, %d seeds\n",
		k, k*k*k/4, wl, 100*load, ms, seeds)
	t0 := time.Now()
	type out struct {
		res *scenario.Result
		col *metrics.FCTCollector
		err error
	}
	runs := exp.ParallelMap(specs, exp.PoolWorkers(0, 0), func(sp scenario.Spec) out {
		res, col, err := scenario.RunFlows(sp)
		return out{res, col, err}
	})
	merged := make(map[string]*metrics.FCTCollector)
	for _, r := range runs {
		if r.err != nil {
			return r.err
		}
		sp, m := r.res.Spec, r.res.Metrics
		fmt.Printf("  %-6s seed %d: %6d/%6d flows done, offered load %.2f, %d pauses, %d drops\n",
			sp.Scheme, sp.Seed, int(m["completed"]), int(m["generated"]), m["offered_load"],
			int64(m["pause_frames"]), int64(m["drops"]))
		if merged[sp.Scheme] == nil {
			merged[sp.Scheme] = metrics.NewFCTCollector()
		}
		merged[sp.Scheme].Merge(r.col)
	}
	fmt.Printf("  wall time %.1fs\n", time.Since(t0).Seconds())

	tables, err := exp.FormatFCTTables(wl, merged, names)
	if err != nil {
		return err
	}
	fmt.Println(tables)
	fmt.Println(exp.FormatHeadlines(wl, merged))
	return nil
}
