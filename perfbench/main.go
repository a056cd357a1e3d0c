// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator through the same public calls a user makes, checks every
// simulated output, and reports end-to-end and per-layer metrics next to a
// host fingerprint.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload fct-k8-serial --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
//	bash perfbench/run.sh compare old.json new.json
//
// Each workload is a closed loop of operations (one simulation, or one
// sweep pass for sweep-served) repeated for --seconds. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it interleaves traced and
// untraced operations and prints the per-layer metrics: span timings of
// the public calls, engine counters, a CPU profile folded by layer, and the
// tracing overhead. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. A report with the fingerprint is
// also written under .bench_build/reports.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads are the benchmark's workloads in report order. Why each exists
// is recorded in BENCHMARK.json.
var workloads = []struct {
	name string
	run  func(o opts) (*result, error)
}{
	{"fct-k8-serial", func(o opts) (*result, error) { return runFCTWorkload(o, false) }},
	{"fct-k8-sharded", func(o opts) (*result, error) { return runFCTWorkload(o, true) }},
	{"fluid-k16", runFluidWorkload},
	{"sweep-served", runSweepWorkload},
}

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	// tiny shrinks every workload for the smoke test.
	tiny bool
	// pinned maps workload names to their output digest at defaultSeed.
	pinned map[string]string
	// outDir receives reports, span traces and sweep cache directories.
	outDir string
}

// digestProblem compares the digest of an output made from the given
// input seed with the pinned one, which exists for the default seed only.
func (o opts) digestProblem(seed int64, got string) []string {
	key := o.workload
	if o.tiny {
		key += "/tiny"
	}
	if want := o.pinned[key]; seed == defaultSeed && want != "" && got != want {
		return []string{fmt.Sprintf("output digest %s, pinned %s", got, want)}
	}
	return nil
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	digest            string
	metrics           map[string]float64
}

// check counts one operation and records why it failed, if it did.
func (r *result) check(label string, problems []string) {
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, label+": "+strings.Join(problems, "; "))
	}
}

// metricLine is one reported metric.
type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last stdout line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricLine `json:"metrics"`
}

// report is the file written per run: the summary plus what makes it
// comparable.
type report struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Trace       bool        `json:"trace"`
	Seconds     float64     `json:"seconds"`
	Fingerprint fingerprint `json:"fingerprint"`
	Digest      string      `json:"digest"`
	Failures    []string    `json:"failures,omitempty"`
	summary
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := opts{workload: *workload, seed: *seed, trace: *trace == 1,
		budget: time.Duration(*seconds * float64(time.Second)),
		pinned: pinnedDigests, outDir: ".bench_build"}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *seed <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --trace 0|1, --seconds > 0 and --seed > 0")
		return 2
	}
	fp := hostFingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
	if o.workload == "all" {
		return runAll(o, fp, stdout, stderr)
	}
	rep, err := runOne(o, fp)
	if err == nil {
		err = emit(stdout, o, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// emit prints a report, writes its file, and prints the summary as the
// last stdout line.
func emit(stdout io.Writer, o opts, rep *report) error {
	printReport(stdout, rep)
	if err := writeReport(o, rep); err != nil {
		return err
	}
	line, err := json.Marshal(rep.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// runOne runs one workload and assembles its report.
func runOne(o opts, fp fingerprint) (*report, error) {
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		res, err := w.run(o)
		if err != nil {
			return nil, err
		}
		if res.attempted == 0 {
			return nil, errors.New("no operation ran")
		}
		rep := &report{Workload: o.workload, Seed: o.seed, Trace: o.trace,
			Seconds: o.budget.Seconds(), Fingerprint: fp, Digest: res.digest,
			Failures: res.failures}
		rep.Correct = res.failed == 0
		rep.Attempted, rep.Failed = res.attempted, res.failed
		rep.Metrics = map[string]metricLine{}
		for _, d := range metricDefs {
			if d.e2e == o.trace {
				continue
			}
			v, ok := res.metrics[d.name]
			if !ok {
				return nil, fmt.Errorf("metric %s was not measured", d.name)
			}
			rep.Metrics[d.name] = metricLine{v, d.unit}
		}
		return rep, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d/%d operations failed\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  failed %s\n", f)
	}
	fmt.Fprintf(w, "digest %s\n", rep.Digest)
	for _, d := range metricDefs {
		if m, ok := rep.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
}

func writeReport(o opts, rep *report) error {
	dir := filepath.Join(o.outDir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, boolInt(rep.Trace))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and then traced, printing each
// report, and adds the session's serial ÷ sharded speedup.
func runAll(o opts, fp fingerprint, stdout, stderr io.Writer) int {
	code := 0
	total := summary{Correct: true, Metrics: map[string]metricLine{}}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			wo := o
			wo.workload, wo.trace = w.name, traced
			rep, err := runOne(wo, fp)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			printReport(stdout, rep)
			total.Correct = total.Correct && rep.Correct
			total.Attempted += rep.Attempted
			total.Failed += rep.Failed
			for k, v := range rep.Metrics {
				total.Metrics[w.name+"/"+k] = v
			}
		}
	}
	serial := total.Metrics["fct-k8-serial/sim_wall_s"].Value
	sharded := total.Metrics["fct-k8-sharded/sim_wall_s"].Value
	if serial > 0 && sharded > 0 {
		fmt.Fprintf(stdout, "session shard.parallel_speedup %.4g = serial %.4g s / sharded %.4g s at %d workers (ungated)\n",
			serial/sharded, serial, sharded, shardWorkers())
	}
	line, _ := json.Marshal(total)
	fmt.Fprintln(stdout, string(line))
	return code
}

// compareCmd prints the ratio of every metric two reports share, after
// checking that both were measured on the same host.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <old report> <new report>")
		return 2
	}
	var reps [2]report
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := comparable(reps[0].Fingerprint, reps[1].Fingerprint); err != nil {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %v\n", err)
		return 1
	}
	if reps[0].Workload != reps[1].Workload || reps[0].Trace != reps[1].Trace {
		fmt.Fprintln(stderr, "perfbench: refusing to compare different workloads or trace modes")
		return 1
	}
	fmt.Fprintf(stdout, "%s: %s -> %s\n", reps[0].Workload, reps[0].Fingerprint.Commit, reps[1].Fingerprint.Commit)
	names := make([]string, 0, len(reps[0].Metrics))
	for k := range reps[0].Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := reps[0].Metrics[k], reps[1].Metrics[k]
		fmt.Fprintf(stdout, "  %-38s %14.6g -> %14.6g %s (x%.4g)\n", k, a.Value, b.Value, a.Unit, ratio(b.Value, a.Value))
	}
	return 0
}

// comparable reports why two fingerprints name different hosts, if they
// do. Commit and source digest may differ: comparing two versions of the
// code is the point.
func comparable(a, b fingerprint) error {
	a.Commit, b.Commit = "", ""
	a.SourceSHA256, b.SourceSHA256 = "", ""
	if a != b {
		return fmt.Errorf("host fingerprints differ: %+v vs %+v", a, b)
	}
	return nil
}
