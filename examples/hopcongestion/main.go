// Hop-location walkthrough (Fig 13): place the colliding flow at the
// first, middle and last switch of the chain and compare FNCC's queue-depth
// gains over HPCC at each position — reproducing the paper's observation
// that fast notification helps most when congestion is far from the
// receiver, while LHCS recovers the gain at the last hop. Each point is a
// registry scenario (hop-first, hop-middle, hop-last) under one scheme.
//
// Run: go run ./examples/hopcongestion
package main

import (
	"fmt"

	fncc "repro"
)

func main() {
	fmt.Println("Congestion location study (M=3 chain, 100Gbps, flow1 joins at 300us)")
	fmt.Println()
	fmt.Printf("%-8s %-14s %12s %10s %14s\n", "hop", "scheme", "queue peak", "util", "vs HPCC peak")

	for _, pos := range []string{"first", "middle", "last"} {
		schemes := []string{fncc.SchemeHPCC, fncc.SchemeFNCC}
		if pos == "last" {
			schemes = append(schemes, fncc.SchemeFNCCNoLHCS)
		}
		var hpccPeak float64
		for _, s := range schemes {
			sp, err := fncc.LookupScenario("hop-" + pos)
			if err != nil {
				panic(err)
			}
			sp.Scheme = s
			r, err := fncc.RunScenario(sp)
			if err != nil {
				panic(err)
			}
			peak, util := r.Metrics["queue_peak_bytes"], r.Metrics["mean_util"]
			gain := ""
			if s == fncc.SchemeHPCC {
				hpccPeak = peak
			} else if hpccPeak > 0 {
				gain = fmt.Sprintf("-%.1f%%", 100*(1-peak/hpccPeak))
			}
			fmt.Printf("%-8s %-14s %10.1fKB %9.1f%% %14s\n",
				pos, s, peak/1000, 100*util, gain)
		}
		fmt.Println()
	}
	fmt.Println("Paper's Fig 13: -37.5% (first), -29.5% (middle), -8.4% (last w/o LHCS),")
	fmt.Println("-38.5% (last with LHCS). Expect the same ordering here.")
}
