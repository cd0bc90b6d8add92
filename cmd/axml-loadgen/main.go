// Command axml-loadgen drives production-shaped traffic at a peer fleet
// and measures what the fleet does under it: per-request p50/p99/p999
// latency against SLOs, achieved vs configured throughput, and the
// fleet's own /debug/vars counters diffed over the run window.
//
// Traffic is a weighted mix of document fetches, digest-anchored delta
// polls, service invocations, hash probes and push ingest, with
// zipf-distributed document popularity. Arrivals are open-loop by
// default — a seeded Poisson schedule at -rate requests/second that
// does not slow down when the fleet does, so tail latency stays honest
// — or closed-loop with -mode closed (-workers callers with -think
// pauses).
//
// Targets are external peers (-target, repeatable), a scenario file
// (-scenario, JSON — see internal/loadgen.Scenario), or a
// self-contained in-process fleet (-fleet N) for machine-local capacity
// baselines:
//
//	axml-loadgen -fleet 3 -rate 300 -duration 5s
//	axml-loadgen -target http://a:8080 -target http://b:8080 \
//	    -docs d00,d01 -mix doc=4,delta=3,hashes=1 -rate 200 -duration 10s
//	axml-loadgen -scenario mix.json -json
//
// -search runs a step-rate capacity search instead of a single run:
// the rate multiplies by -search-factor until the fleet stops keeping
// up (errors, missed rate, or SLO violations), then bisects — the
// result is the maximum sustainable RPS.
//
// Exit status: 2 on usage errors, 1 if the run errored or -max-errors
// (>= 0) was exceeded or an SLO was violated while -slo-strict is set.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"axml/internal/loadgen"
	"axml/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	scenarioFile := flag.String("scenario", "", "scenario file (JSON); flags below override nothing when set")
	mode := flag.String("mode", "open", "open (Poisson arrivals at -rate) or closed (-workers callers)")
	rate := flag.Float64("rate", 100, "open-loop arrival rate in requests/second")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	workers := flag.Int("workers", 8, "closed-loop worker count")
	think := flag.Duration("think", 0, "closed-loop pause between a worker's requests")
	mix := flag.String("mix", "doc=4,delta=3,invoke=1,hashes=1,push=1", "weighted op mix KIND=WEIGHT,... (kinds: doc delta invoke hashes push)")
	service := flag.String("service", "Lookup", "service invoked by the invoke op")
	pushID := flag.String("push-id", "ingest", "subscription id targeted by the push op")
	docsFlag := flag.String("docs", "", "comma-separated document universe (external targets; -fleet generates its own)")
	zipfS := flag.Float64("zipf-s", 1.2, "zipf skew exponent for document popularity (> 1)")
	seed := flag.Int64("seed", 1, "seed for the arrival schedule and op/doc/target choices")
	maxInFlight := flag.Int("max-in-flight", 1024, "open-loop concurrent request cap (excess arrivals stall, visibly)")
	fleetN := flag.Int("fleet", 0, "start an in-process fleet of this many peers as the target (0 = external -target/-scenario)")
	fleetDocs := flag.Int("fleet-docs", 8, "in-process fleet: documents per peer")
	fleetEntries := flag.Int("fleet-entries", 32, "in-process fleet: initial entries per document")
	sloP50 := flag.Duration("slo-p50", 0, "p50 latency objective (0 = unchecked)")
	sloP99 := flag.Duration("slo-p99", 0, "p99 latency objective (0 = unchecked)")
	sloP999 := flag.Duration("slo-p999", 0, "p999 latency objective (0 = unchecked)")
	sloStrict := flag.Bool("slo-strict", false, "exit nonzero on SLO violations")
	search := flag.Bool("search", false, "run the step-rate capacity search instead of a single run")
	searchStart := flag.Float64("search-start", 50, "capacity search: first trial rate")
	searchFactor := flag.Float64("search-factor", 2, "capacity search: rate multiplier per step")
	searchMax := flag.Float64("search-max", 100000, "capacity search: rate ceiling")
	searchTrial := flag.Duration("search-trial", 2*time.Second, "capacity search: per-trial run length")
	searchRefine := flag.Int("search-refine", 3, "capacity search: bisection steps after the first failure")
	jsonOut := flag.Bool("json", false, "print the full result as JSON on stdout")
	maxErrors := flag.Int64("max-errors", -1, "exit nonzero if more requests than this fail (-1 = no gate)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	var targets stringList
	flag.Var(&targets, "target", "peer base URL (repeatable)")
	var varsURLs stringList
	flag.Var(&varsURLs, "vars", "/debug/vars URL to scrape before and after (repeatable)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "axml-loadgen:", err)
		return 2
	}
	logger := obs.NewLogger(os.Stderr, level)

	// An in-process fleet replaces external targets and wires its
	// registries straight into the runner.
	var fleet *loadgen.Fleet
	if *fleetN > 0 {
		fleet, err = loadgen.StartFleet(loadgen.FleetConfig{
			Peers: *fleetN, Docs: *fleetDocs, Entries: *fleetEntries})
		if err != nil {
			logger.Error("fleet start", "err", err)
			return 1
		}
		defer fleet.Close()
		targets = fleet.URLs
		logger.Info("fleet up", "peers", *fleetN, "docs", *fleetDocs, "entries", *fleetEntries)
	}

	var sc loadgen.Scenario
	switch {
	case *scenarioFile != "":
		sc, err = loadgen.LoadScenario(*scenarioFile)
		if err != nil {
			logger.Error("scenario", "err", err)
			return 2
		}
		if len(sc.Targets) == 0 {
			sc.Targets = targets
		}
	default:
		ops, err := parseMix(*mix, *service, *pushID)
		if err != nil {
			logger.Error("mix", "err", err)
			return 2
		}
		docs := splitNonEmpty(*docsFlag)
		if len(docs) == 0 && fleet != nil {
			docs = fleet.DocNames(*fleetDocs)
		}
		sc = loadgen.Scenario{
			Name:        "mix",
			Targets:     targets,
			Ops:         ops,
			Docs:        docs,
			ZipfS:       *zipfS,
			Mode:        *mode,
			Rate:        *rate,
			Duration:    loadgen.Duration(*duration),
			Workers:     *workers,
			Think:       loadgen.Duration(*think),
			MaxInFlight: *maxInFlight,
			Seed:        *seed,
			SLO: loadgen.SLO{
				P50:  loadgen.Duration(*sloP50),
				P99:  loadgen.Duration(*sloP99),
				P999: loadgen.Duration(*sloP999),
			},
		}
	}

	r := &loadgen.Runner{Scenario: sc, VarsURLs: varsURLs}
	if fleet != nil {
		r.Registries = fleet.Registries
	}
	ctx := context.Background()

	if *search {
		cfg := loadgen.SearchConfig{
			Start: *searchStart, Factor: *searchFactor, Max: *searchMax,
			Trial: *searchTrial, Refine: *searchRefine,
		}
		capr, err := r.Search(ctx, cfg, func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		})
		if err != nil {
			logger.Error("search", "err", err)
			return 1
		}
		if *jsonOut {
			printJSON(capr)
		} else {
			fmt.Printf("capacity: %.0f rps sustained (achieved %.0f rps, %d trials)\n",
				capr.MaxRPS, capr.AchievedRPS, len(capr.Trials))
			printResult(capr.Best)
		}
		return 0
	}

	res, err := r.Run(ctx)
	if err != nil {
		logger.Error("run", "err", err)
		return 1
	}
	if *jsonOut {
		printJSON(res)
	} else {
		printResult(res)
	}
	if *maxErrors >= 0 && res.Errors > *maxErrors {
		logger.Error("error gate", "errors", res.Errors, "max", *maxErrors)
		return 1
	}
	if *sloStrict && !res.SLOPass() {
		logger.Error("slo gate", "violations", fmt.Sprint(res.SLOViolations))
		return 1
	}
	return 0
}

func printResult(res loadgen.Result) {
	fmt.Printf("%s (%s): sent=%d errors=%d elapsed=%v achieved=%.0f rps",
		res.Scenario, res.Mode, res.Sent, res.Errors, res.Elapsed.Round(time.Millisecond), res.AchievedRPS)
	if res.Stalled > 0 {
		fmt.Printf(" stalled=%d", res.Stalled)
	}
	fmt.Println()
	fmt.Printf("  overall: mean=%v p50=%v p99=%v p999=%v max=%v\n",
		res.Overall.Mean, res.Overall.P50, res.Overall.P99, res.Overall.P999, res.Overall.Max)
	kinds := make([]string, 0, len(res.PerOp))
	for k := range res.PerOp {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := res.PerOp[k]
		fmt.Printf("  %-7s sent=%d errors=%d mean=%v p99=%v\n", k+":", st.Sent, st.Errors, st.Mean, st.P99)
	}
	for _, v := range res.SLOViolations {
		fmt.Println("  SLO VIOLATION:", v)
	}
	for kind, msg := range res.FirstErrors {
		fmt.Printf("  first %s error: %s\n", kind, msg)
	}
	// The handful of server-side counters that tell the load story;
	// the full diff is in -json output.
	for _, k := range loadgen.ServerKeys(res.Server, "http.requests.") {
		fmt.Printf("  server %s=%.0f\n", k, res.Server[k])
	}
	for _, e := range res.ServerErrs {
		fmt.Println("  scrape error:", e)
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // stdout
}

// parseMix turns "doc=4,delta=3,hashes=1" into weighted ops.
func parseMix(mix, service, pushID string) ([]loadgen.Op, error) {
	var ops []loadgen.Op
	for _, part := range splitNonEmpty(mix) {
		kind, weightStr, ok := strings.Cut(part, "=")
		w := 1.0
		if ok {
			var err error
			if w, err = strconv.ParseFloat(weightStr, 64); err != nil {
				return nil, fmt.Errorf("bad weight in %q: %w", part, err)
			}
		}
		op := loadgen.Op{Kind: kind, Weight: w}
		switch kind {
		case loadgen.OpInvoke:
			op.Service = service
		case loadgen.OpPush:
			op.PushID = pushID
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
