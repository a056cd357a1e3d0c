package exp

import (
	"fmt"

	"repro/internal/metrics"
)

// WebSearchBuckets are the Fig 14 x-axis flow-size bins.
func WebSearchBuckets() []metrics.Bucket {
	edges := []int64{10_000, 20_000, 30_000, 50_000, 80_000, 200_000,
		1_000_000, 2_000_000, 5_000_000, 10_000_000, 30_000_000}
	return bucketize(edges, []string{"10KB", "20KB", "30KB", "50KB", "80KB",
		"200KB", "1MB", "2MB", "5MB", "10MB", "30MB"})
}

// HadoopBuckets are the Fig 15 x-axis flow-size bins.
func HadoopBuckets() []metrics.Bucket {
	edges := []int64{75, 250, 350, 1_000, 2_000, 6_000, 10_000, 15_000,
		23_000, 24_000, 25_000, 100_000, 1_000_000}
	return bucketize(edges, []string{"75B", "250B", "350B", "1KB", "2KB",
		"6KB", "10KB", "15KB", "23KB", "24KB", "25KB", "100KB", "1MB"})
}

func bucketize(edges []int64, labels []string) []metrics.Bucket {
	out := make([]metrics.Bucket, len(edges))
	lo := int64(0)
	for i, hi := range edges {
		out[i] = metrics.Bucket{Label: labels[i], LoByte: lo, HiByte: hi}
		lo = hi
	}
	return out
}

// BucketsFor returns the figure buckets for a workload name.
func BucketsFor(wl string) ([]metrics.Bucket, error) {
	switch wl {
	case "websearch", "WebSearch":
		return WebSearchBuckets(), nil
	case "hadoop", "fbhadoop", "FB_Hadoop":
		return HadoopBuckets(), nil
	default:
		return nil, fmt.Errorf("exp: no buckets for workload %q", wl)
	}
}
