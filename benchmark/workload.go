package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// runConfig is what one run is told. seconds scales every operation
// count linearly (run_seconds in BENCHMARK.json is the reference the
// counts were sized for on the recording box); it never changes a
// structural size (n, k, document counts).
type runConfig struct {
	seed    int64
	seconds float64
	outDir  string
	// quick is the smoke test's setting and nothing else's: one set-up
	// per run, one round per kernel, and append-replicate's logs at a
	// fifth of their size, so that every code path and every check of
	// the suite runs within a unit test's time.
	quick bool
}

// ops turns a count sized for the 10-second reference run into this
// run's count.
func (c runConfig) ops(reference int, share float64) int {
	n := int(math.Round(float64(reference) * c.seconds / 10 * share))
	if n < 2 {
		n = 2
	}
	return n
}

// checker counts operations and failed correctness checks; a failed
// check is a failed operation.
type checker struct {
	attempted, failed int
	msgs              []string
}

func (c *checker) op() { c.attempted++ }

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 5 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// check records a failure when ok is false.
func (c *checker) check(ok bool, format string, args ...any) {
	if !ok {
		c.fail(format, args...)
	}
}

func (c *checker) err(err error, what string) bool {
	if err != nil {
		c.fail("%s: %v", what, err)
		return true
	}
	return false
}

// phase is what one measured pass over a workload instance yields.
type phase struct {
	// primary and secondary are the raw latencies of the workload's two
	// operation classes (see the table in README.md).
	primary, secondary []time.Duration
	// ops completed in wall time of the measured sections.
	ops  int
	wall time.Duration
	// state is the digest of the final state, which the traced pass
	// must reproduce.
	state string
	// layer holds the per-layer counts read from RunResult.Stats and the
	// peers' registries, by metric name.
	layer map[string]float64
}

// instance is one set-up of a workload, ready to measure.
type instance interface {
	// measure runs the measured phases at the given share of the
	// operation counts.
	measure(share float64) phase
	// layers derives the span-based per-layer metrics of a traced pass.
	layers(v traceView) map[string]float64
	// kernels times the layers' public functions in isolation on the
	// instance's own data (and, on fleet-serve, runs the open-loop
	// phase). It runs on the untraced instance.
	kernels() (map[string]float64, error)
	Close()
}

type workload struct {
	name, why string
	// setup builds the inputs from cfg.seed, starts the peers and warms
	// them up. rec is nil on the untraced pass.
	setup func(cfg runConfig, rec *recorder, chk *checker) (instance, error)
}

var workloads = []workload{
	{"tc-fixpoint", "join-bound: query/pattern evaluation and subsume merge are nearly all of the time, the engine fires 8 calls; in memory, no peer, wire or disk", setupTC},
	{"portal-sweep", "call-bound: engine scheduling, sterile re-firing, envelope codec and /axml/invoke serving dominate and every join is tiny; cold fleets vs one-edge refreshes", setupPortal},
	{"fleet-serve", "the served path: wire codec, the peer mutex and HTTP under a closed loop of 2 callers, writes beside reads, documents small on purpose", setupFleet},
	{"append-replicate", "the hot append path at k=600 and k=150 siblings: sibling pruning, delta prune/apply, digest invalidation; evaluation does nothing", setupAppend},
	{"durable-ingest", "the only workload where the journal does most of the work: steady durable pushes, snapshot compaction, then recovery of a crash image", setupDurable},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is one run's result in the shape the driver reads.
type outcome struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Failures  []string           `json:"failures,omitempty"`
}

// The untraced run sets the workload up at least minSetups times, and
// on until the set-ups have taken setupBudget together or maxSetups is
// reached, so a set-up of a few milliseconds gets more samples. The
// median is setup_s; the last instance is the one measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

// setUpAgain decides whether the untraced run sets up once more.
func (c runConfig) setUpAgain(done int, spent time.Duration) bool {
	switch {
	case c.quick:
		return done < 1
	case done < minSetups:
		return true
	default:
		return done < maxSetups && spent < setupBudget
	}
}

// tracedShare is the share of the operation counts the traced run
// uses, for both its untraced reference pass and its traced pass.
const tracedShare = 0.25

// runUntraced is the end-to-end run: tracing off, no wrapper installed.
func runUntraced(w workload, cfg runConfig) (outcome, error) {
	chk := &checker{}
	var setups []float64
	var inst instance
	for spent := time.Duration(0); cfg.setUpAgain(len(setups), spent); {
		if inst != nil {
			inst.Close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg, nil, chk); err != nil {
			return outcome{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}
	defer inst.Close()
	runtime.GC()
	allocBefore := totalAllocMB()
	ph := inst.measure(1)
	allocMB := totalAllocMB() - allocBefore

	p, s := ms(ph.primary), ms(ph.secondary)
	return outcome{
		Workload: w.name, Attempted: chk.attempted, Failed: chk.failed, Failures: chk.msgs,
		Metrics: map[string]float64{
			"setup_s":          median(setups),
			"ops_per_s":        ratio(float64(ph.ops), ph.wall.Seconds()),
			"primary_p50_ms":   median(p),
			"secondary_p50_ms": median(s),
			"alloc_mb":         allocMB,
		},
		Samples: map[string]int{"setup": len(setups), "primary": len(p), "secondary": len(s), "ops": ph.ops},
	}, nil
}

// runTraced is the per-layer run: an untraced reference pass and a
// traced pass at the same reduced counts (their ratio is the tracing
// overhead and their final states must agree), then the kernels.
func runTraced(w workload, cfg runConfig) (outcome, error) {
	chk := &checker{}
	ref, err := w.setup(cfg, nil, chk)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refPhase := ref.measure(tracedShare)
	runtime.ReadMemStats(&after)
	kernels, err := ref.kernels()
	ref.Close()
	if err != nil {
		return outcome{}, fmt.Errorf("%s: kernels: %w", w.name, err)
	}

	rec := newRecorder()
	inst, err := w.setup(cfg, rec, chk)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer inst.Close()
	rec.reset() // drop the warm-up's spans
	ph := inst.measure(tracedShare)
	view := traceView(summarize(rec.snapshot()))

	chk.check(ph.state == refPhase.state, "traced final state %s differs from untraced %s", ph.state, refPhase.state)
	metrics := map[string]float64{}
	for _, m := range perLayer {
		metrics[m.Name] = 0
	}
	merge := func(src map[string]float64) {
		for k, v := range src {
			if _, known := metrics[k]; !known {
				panic("benchmark: undeclared per-layer metric " + k)
			}
			metrics[k] = v
		}
	}
	merge(refPhase.layer)
	merge(map[string]float64{
		"latency.primary_p95_ms":   percentile(ms(refPhase.primary), 95),
		"latency.secondary_p95_ms": percentile(ms(refPhase.secondary), 95),
		"runtime.gc_cycles":        float64(after.NumGC - before.NumGC),
		"runtime.gc_pause_ms":      float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	})
	merge(inst.layers(view))
	merge(kernels)
	un := view.unattributed()
	metrics["trace.overhead_ratio"] = ratio(median(ms(ph.primary)), median(ms(refPhase.primary)))
	metrics["trace.unattributed_ratio"] = median(un)
	chk.check(median(un) <= 0.05, "self times miss the root by %.1f%% (median over %d operations)", 100*median(un), len(un))
	chk.check(len(view) > 0, "traced pass recorded no operation")
	if err := rec.writeJSONL(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed)); err != nil {
		return outcome{}, err
	}
	return outcome{
		Workload: w.name, Traced: true, Attempted: chk.attempted, Failed: chk.failed, Failures: chk.msgs,
		Metrics: metrics,
		Samples: map[string]int{"primary": len(ph.primary), "secondary": len(ph.secondary), "traces": len(view)},
	}, nil
}
