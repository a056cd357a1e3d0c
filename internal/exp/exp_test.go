package exp

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSchemeRegistry(t *testing.T) {
	for _, name := range append(AllSchemes(), SchemeFNCCNoLHCS) {
		s, err := NewScheme(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("scheme name %q != %q", s.Name, name)
		}
	}
	if _, err := NewScheme("TCP"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestExtensionsInRegistry(t *testing.T) {
	for _, name := range []string{SchemeTimely, SchemeSwift, SchemeExpressPass} {
		s, err := NewScheme(name)
		if err != nil || s.Name != name {
			t.Fatalf("%s registry: %v", name, err)
		}
	}
}

func TestParallelMapOrderAndCoverage(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	got := ParallelMap(jobs, 8, func(x int) int { return x * x })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Degenerate pools.
	if r := ParallelMap([]int{}, 4, func(x int) int { return x }); len(r) != 0 {
		t.Fatal("empty jobs")
	}
	if r := ParallelMap([]int{5}, 0, func(x int) int { return x + 1 }); r[0] != 6 {
		t.Fatal("auto workers")
	}
}

func TestBuckets(t *testing.T) {
	ws := WebSearchBuckets()
	if len(ws) != 11 || ws[0].Label != "10KB" || ws[10].HiByte != 30_000_000 {
		t.Fatalf("websearch buckets: %+v", ws)
	}
	hd := HadoopBuckets()
	if len(hd) != 13 || hd[0].LoByte != 0 || hd[0].HiByte != 75 {
		t.Fatalf("hadoop buckets: %+v", hd)
	}
	// Contiguity.
	for i := 1; i < len(ws); i++ {
		if ws[i].LoByte != ws[i-1].HiByte {
			t.Fatal("websearch buckets not contiguous")
		}
	}
	if _, err := BucketsFor("nope"); err == nil {
		t.Fatal("unknown workload buckets")
	}
}

func TestSlowdownReduction(t *testing.T) {
	a, b := metrics.NewFCTCollector(), metrics.NewFCTCollector()
	rec := func(c *metrics.FCTCollector, slow float64) {
		c.Record(metrics.FCTRecord{SizeBytes: 50_000, Finish: sim.Time(slow * 1000), Ideal: 1000})
	}
	for i := 0; i < 10; i++ {
		rec(a, 2.0) // scheme
		rec(b, 4.0) // baseline
	}
	if got := SlowdownReduction("p95", a, b, 0, 100_000); got != 0.5 {
		t.Fatalf("reduction = %v", got)
	}
	if got := SlowdownReduction("avg", a, b, 1<<40, 1<<41); got != 0 {
		t.Fatalf("empty bucket reduction = %v", got)
	}
}
