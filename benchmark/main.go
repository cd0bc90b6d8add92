// Command benchmark is the repository's one benchmark: five workloads
// from an in-memory fixpoint to durable ingest, end-to-end metrics
// measured with tracing off, and a per-layer ledger from a second,
// traced run — every layer timed from outside, through the program's
// public functions. See README.md for the workloads, the metrics and
// what each layer metric is predicted to move.
//
//	go run ./benchmark                      # all workloads, both runs, seed 1
//	go run ./benchmark -workload tc-fixpoint -trace 0 -seed 3 -seconds 10
//	go run ./benchmark -repeat 2            # noise self-check
//
// With one -workload and a -trace of 0 or 1 the last line of standard
// output is the result object BENCHMARK.json's contract describes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// heapBallast is allocated once and never touched (so it costs address
// space, not memory). The workloads' live heaps are a few megabytes
// while they allocate hundreds of megabytes a second, which on its own
// makes the collector run some forty times a second — and where in an
// operation those cycles fell was the largest source of run-to-run
// spread (±13 % on tc-fixpoint's median, ±4 % with the ballast). With
// it the collector runs as often as in a peer that holds a corpus of
// this size, GOGC untouched. What allocation costs stays visible in
// alloc_mb, runtime.gc_cycles and runtime.gc_pause_ms.
const heapBallast = 64 << 20

func main() {
	ballast := make([]byte, heapBallast)
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	runtime.KeepAlive(ballast)
	os.Exit(code)
}

// report is what a suite run writes to <out>/report-seed<n>.json.
type report struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Results []outcome   `json:"results"`
}

// value is one metric in the driver's result object.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured length the operation counts are scaled to")
	trace := fs.Int("trace", -1, "0: end-to-end run with tracing off; 1: traced per-layer run; default: both")
	repeat := fs.Int("repeat", 1, "run the suite this many times and fail if the sets disagree beyond the metrics' bounds")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for span files, reports and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 || *repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, -repeat at least 1, and there are no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *out}
	env := stampEnvironment()
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s seed=%d seconds=%g\n", envLine, *seed, *seconds)

	if len(selected) == 1 && *trace >= 0 && *repeat == 1 {
		return runOne(selected[0], cfg, *trace == 1, stdout, stderr)
	}

	var sets []report
	failed := 0
	for i := 0; i < *repeat; i++ {
		rep := report{Env: env, Seed: *seed, Seconds: *seconds}
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				if *trace >= 0 && traced != (*trace == 1) {
					continue
				}
				o, err := runPass(w, cfg, traced)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				printOutcome(stdout, o)
				failed += o.Failed
				rep.Results = append(rep.Results, o)
			}
		}
		sets = append(sets, rep)
	}
	path := filepath.Join(*out, fmt.Sprintf("report-seed%d.json", *seed))
	if err := writeJSON(path, sets[len(sets)-1]); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report written to %s\n", path)
	agree := true
	if *repeat > 1 {
		agree = compareSets(stdout, sets)
	}
	if failed > 0 || !agree {
		fmt.Fprintf(stdout, "FAIL: %d failed operations, sets agree: %v\n", failed, agree)
		return 1
	}
	return 0
}

func runPass(w workload, cfg runConfig, traced bool) (outcome, error) {
	if traced {
		return runTraced(w, cfg)
	}
	return runUntraced(w, cfg)
}

// runOne is the driver's form: one workload, one run, and the result
// object as the last line of standard output.
func runOne(w workload, cfg runConfig, traced bool, stdout, stderr io.Writer) int {
	o, err := runPass(w, cfg, traced)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printOutcome(stdout, o)
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	metrics := map[string]value{}
	for _, m := range declared {
		metrics[m.Name] = value{o.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": o.Failed == 0, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if o.Failed > 0 {
		return 1
	}
	return 0
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// printOutcome prints every metric of a run by name with its unit, the
// sample counts and the error ratio.
func printOutcome(w io.Writer, o outcome) {
	kind := "end-to-end (tracing off)"
	if o.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s · %s · samples %v\n", o.Workload, kind, o.Samples)
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if o.Traced && o.Metrics[n] == 0 {
			continue // a layer this workload does not reach
		}
		fmt.Fprintf(w, "%-18s %-34s %16.4f %s\n", o.Workload, n, o.Metrics[n], unitOf(n))
	}
	fmt.Fprintf(w, "%-18s %-34s %16.4f ratio (%d failed of %d attempted)\n", o.Workload, "error_ratio",
		ratio(float64(o.Failed), float64(o.Attempted)), o.Failed, o.Attempted)
	for _, msg := range o.Failures {
		fmt.Fprintf(w, "%-18s FAILED CHECK: %s\n", o.Workload, msg)
	}
}

// compareSets is the noise self-check: the same code run several times
// must agree with itself within each end-to-end metric's own bound, and
// exactly on the exact counts.
func compareSets(w io.Writer, sets []report) bool {
	ok := true
	fmt.Fprintf(w, "\n== spread over %d sets (max-min over min)\n", len(sets))
	for i, first := range sets[0].Results {
		names := make([]string, 0, len(first.Metrics))
		for n := range first.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			lo, hi := first.Metrics[n], first.Metrics[n]
			for _, s := range sets[1:] {
				v := s.Results[i].Metrics[n]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			spread := ratio(hi-lo, lo)
			verdict := ""
			switch {
			case !first.Traced:
				if bound := boundOf(n); spread > bound {
					verdict = fmt.Sprintf("EXCEEDS its bound %.2f", bound)
					ok = false
				}
			case exactOn(n, first.Workload) && hi != lo:
				verdict = "an exact count that DIFFERS"
				ok = false
			}
			if !first.Traced || verdict != "" {
				fmt.Fprintf(w, "%-18s %-34s %8.4f %s\n", first.Workload, n, spread, verdict)
			}
		}
	}
	return ok
}

func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
