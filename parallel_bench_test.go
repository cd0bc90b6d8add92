// BenchmarkRunParallel measures the worklist schedule (parallelism > 1)
// against the sequential sweep on latency-bound workloads: every service is wrapped in
// a FaultService injecting a fixed per-invocation delay, simulating the
// remote services of the paper's setting (where invocation cost is
// network wait, not CPU). Theorem 2.1 licenses firing those waits
// concurrently; the speedup at parallelism n is the measured payoff:
//
//	go test -run '^$' -bench BenchmarkRunParallel -benchtime 5x .
package axml_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"axml"
	"axml/internal/workload"
)

// benchLatency is the simulated per-invocation service latency.
const benchLatency = 2 * time.Millisecond

// latencyWrap rebuilds a system with every service behind a fixed
// simulated latency (the documents are deep-copied, so the source system
// can be rebuilt per iteration).
func latencyWrap(s *axml.System, d time.Duration) *axml.System {
	out := axml.NewSystem()
	for _, name := range s.DocNames() {
		if err := out.AddDocument(axml.NewDocument(name, s.Document(name).Root.Copy())); err != nil {
			panic(err)
		}
	}
	for _, fn := range s.FuncNames() {
		if err := out.AddService(&axml.FaultService{Service: s.Service(fn), Latency: d}); err != nil {
			panic(err)
		}
	}
	return out
}

// graphBenchSystem embeds a successor query per graph node: n independent
// calls per sweep over a shared edge relation — the embarrassingly
// parallel case.
func graphBenchSystem(nodes int) *axml.System {
	rng := rand.New(rand.NewSource(11))
	edges := workload.Edges(rng, workload.RandomGraph, nodes)
	src := "doc edges = g{"
	for i, e := range edges {
		if i > 0 {
			src += ","
		}
		src += fmt.Sprintf(`e{a{%q},b{%q}}`, e[0], e[1])
	}
	src += "}\ndoc portal = p{"
	for i := 0; i < nodes; i++ {
		if i > 0 {
			src += ","
		}
		src += fmt.Sprintf(`node{name{"n%d"},!succ}`, i)
	}
	src += "}\n"
	src += "func succ = out{$y} :- context/node{name{$x}}, edges/g{e{a{$x},b{$y}}}\n"
	return axml.MustParseSystem(src)
}

// jazzBenchSystem is the paper's running example at full intensional
// load: every cd resolves its rating through a GetRating call.
func jazzBenchSystem(cds int) *axml.System {
	rng := rand.New(rand.NewSource(7))
	return workload.JazzSystem(rng, workload.JazzConfig{CDs: cds, MaterializedRatio: 0})
}

func BenchmarkRunParallel(b *testing.B) {
	// `fired` against the parallelism-1 row measures how much re-firing
	// the worklist's reverse index eliminates over the sweep.
	workloads := []struct {
		name string
		mk   func() *axml.System
	}{
		{"graph", func() *axml.System { return latencyWrap(graphBenchSystem(64), benchLatency) }},
		{"jazz", func() *axml.System { return latencyWrap(jazzBenchSystem(48), benchLatency) }},
	}
	for _, wl := range workloads {
		// The fixpoint every parallelism level must reproduce.
		ref := wl.mk()
		if res := ref.Run(axml.RunOptions{Parallelism: 1}); res.Err != nil || !res.Terminated {
			b.Fatalf("%s reference run: %+v", wl.name, res)
		}
		want := ref.CanonicalString()
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/parallelism-%d", wl.name, par), func(b *testing.B) {
				var st axml.RunStats
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s := wl.mk()
					b.StartTimer()
					res := s.Run(axml.RunOptions{Parallelism: par})
					if res.Err != nil || !res.Terminated {
						b.Fatalf("run: %+v", res)
					}
					b.StopTimer()
					if s.CanonicalString() != want {
						b.Fatal("parallel fixpoint diverged from sequential")
					}
					st = res.Stats
					b.StartTimer()
				}
				// The engine's own view of the run (last iteration), so the
				// output shows where the time went, not just that it went.
				b.ReportMetric(float64(st.CallsFired), "fired")
				b.ReportMetric(float64(st.DeltaEvals), "delta_evals")
				b.ReportMetric(float64(st.Eval.P99), "eval_p99_ns")
				b.ReportMetric(float64(st.MergeWait.P99), "mergewait_p99_ns")
			})
		}
	}
}
