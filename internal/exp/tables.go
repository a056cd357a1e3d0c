package exp

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// FormatFCTTables renders all four panels (avg/median/p95/p99) of a
// Fig 14/15-style table for the given workload.
func FormatFCTTables(workloadName string, merged map[string]*metrics.FCTCollector, order []string) (string, error) {
	buckets, err := BucketsFor(workloadName)
	if err != nil {
		return "", err
	}
	stats := make(map[string][]metrics.BucketStats, len(merged))
	for name, col := range merged {
		stats[name] = col.BucketTable(buckets)
	}
	var b strings.Builder
	for _, stat := range []string{"avg", "median", "p95", "p99"} {
		fmt.Fprintf(&b, "\n== %s FCT slowdown (%s) ==\n", stat, workloadName)
		b.WriteString(metrics.FormatBucketTable(stat, order, stats))
	}
	return b.String(), nil
}

// FormatHeadlines renders the §5.5 headline reductions for a workload
// (small-flow p95 and large-flow median, FNCC vs each baseline).
func FormatHeadlines(workloadName string, merged map[string]*metrics.FCTCollector) string {
	fncc := merged[SchemeFNCC]
	if fncc == nil {
		return ""
	}
	var b strings.Builder
	small := int64(100_000)
	large := int64(1_000_000)
	for _, base := range []string{SchemeHPCC, SchemeDCQCN} {
		bl := merged[base]
		if bl == nil {
			continue
		}
		if fncc.SlowdownDist(0, small).N() > 0 {
			fmt.Fprintf(&b, "%s: flows<100KB p95 slowdown reduction vs %s: %.1f%%\n",
				workloadName, base, 100*SlowdownReduction("p95", fncc, bl, 0, small))
		}
		// The large-flow headline needs flows strictly above 1MB (WebSearch
		// has them; FB_Hadoop tops out at exactly 1MB).
		if fncc.SlowdownDist(large, 1<<62).N() > 0 {
			fmt.Fprintf(&b, "%s: flows>1MB median slowdown reduction vs %s: %.1f%%\n",
				workloadName, base, 100*SlowdownReduction("median", fncc, bl, large, 1<<62))
		}
	}
	return b.String()
}

// SlowdownReduction computes the headline percentages of §5.5: the relative
// reduction of a statistic ("avg"|"median"|"p95"|"p99") for flows in
// (loByte, hiByte], scheme vs baseline. Positive = scheme is better.
func SlowdownReduction(stat string, scheme, baseline *metrics.FCTCollector, loByte, hiByte int64) float64 {
	pick := func(d *metrics.Dist) float64 {
		switch stat {
		case "avg":
			return d.Mean()
		case "median":
			return d.Median()
		case "p95":
			return d.P95()
		case "p99":
			return d.P99()
		default:
			panic("exp: unknown stat " + stat)
		}
	}
	b := pick(baseline.SlowdownDist(loByte, hiByte))
	s := pick(scheme.SlowdownDist(loByte, hiByte))
	if b == 0 {
		return 0
	}
	return 1 - s/b
}
