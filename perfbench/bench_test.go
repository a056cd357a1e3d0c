package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared is BENCHMARK.json's metric and workload declarations.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyOpts runs a workload at the smoke-test size: the minimum number of
// operations, each on a small fabric.
func tinyOpts(t *testing.T, workload string, traced bool) opts {
	return opts{workload: workload, seed: defaultSeed, trace: traced, tiny: true,
		pinned: pinnedDigests, outDir: t.TempDir()}
}

// TestSmokeEveryWorkload runs every workload untraced and traced at a tiny
// size and checks that every metric BENCHMARK.json declares is emitted with
// its declared unit, and that no operation failed.
func TestSmokeEveryWorkload(t *testing.T) {
	d := readDeclared(t)
	units := map[bool]map[string]string{true: {}, false: {}}
	for _, m := range d.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		units[true][m.Name] = m.Unit
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := tinyOpts(t, w.name, traced)
			rep, err := runOne(o, hostFingerprint())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			t.Logf("%s trace=%v: digest %s, %d operations", w.name, traced, rep.Digest, rep.Attempted)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d/%d failed: %v", w.name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			if len(rep.Metrics) != len(units[traced]) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json declares %d",
					w.name, traced, len(rep.Metrics), len(units[traced]))
			}
			for name, unit := range units[traced] {
				m, ok := rep.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, name, m, unit)
				}
			}
			var out bytes.Buffer
			if err := emit(&out, o, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil ||
				last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line keys %v", w.name, last)
			}
		}
	}
}

// TestWrongPinnedDigestFails shows the output check can fail: a pinned
// digest that does not match the output turns operations into failures.
func TestWrongPinnedDigestFails(t *testing.T) {
	for _, w := range workloads {
		o := tinyOpts(t, w.name, false)
		o.pinned = map[string]string{w.name + "/tiny": "0000000000000000"}
		rep, err := runOne(o, hostFingerprint())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: wrong pinned digest went unnoticed: %d/%d failed", w.name, rep.Failed, rep.Attempted)
		}
	}
}

// TestDeclaredBounds checks the end-to-end bounds BENCHMARK.json fixes:
// within (0, 0.25], with setup_s given the largest.
func TestDeclaredBounds(t *testing.T) {
	d := readDeclared(t)
	var setup, most float64
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		most = max(most, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if setup == 0 || setup < most {
		t.Errorf("setup_s bound %v, want the largest (%v)", setup, most)
	}
}

// TestComparableRefusesOtherHosts checks that reports from different hosts
// are refused while different commits of the code are compared.
func TestComparableRefusesOtherHosts(t *testing.T) {
	a := hostFingerprint()
	b := a
	b.Commit, b.SourceSHA256 = "other", "other"
	if err := comparable(a, b); err != nil {
		t.Errorf("different commits on one host refused: %v", err)
	}
	b.CPUModel = "another CPU"
	if comparable(a, b) == nil {
		t.Error("reports from different CPUs were accepted for comparison")
	}
}
