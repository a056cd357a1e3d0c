package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// layerZero fills every per-layer metric with 0; each workload then sets
// the ones its layers measure. A layer that does no work on a workload
// reports 0 there.
func layerZero() map[string]float64 {
	m := map[string]float64{}
	for _, d := range metricDefs {
		if !d.e2e {
			m[d.name] = 0
		}
	}
	return m
}

// spanMedian is the median duration, in seconds, of the finished spans
// with the given name.
func spanMedian(tr *obs.Tracer, name string) float64 {
	var xs []float64
	for _, s := range tr.Spans() {
		if s.Name == name {
			xs = append(xs, float64(s.DurNs)/1e9)
		}
	}
	return median(xs)
}

// addProfile folds a CPU profile into per-layer shares.
func addProfile(m map[string]float64, p *cpuProfile) {
	for l, v := range p.shares() {
		m[l+".cpu_share"] = v
	}
}

// writeSpans writes a traced run's spans as JSONL under outDir/traces.
func writeSpans(o opts, tr *obs.Tracer) error {
	dir := filepath.Join(o.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed)))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
