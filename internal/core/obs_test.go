package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// statsSystem is a small fan-out workload: n independent calls to one
// service, all live in the first sweep.
func statsSystem(t *testing.T, n int, svc Service) *System {
	t.Helper()
	s := NewSystem()
	doc := `top{`
	for i := 0; i < n; i++ {
		if i > 0 {
			doc += ","
		}
		doc += fmt.Sprintf(`slot%d{!answer}`, i)
	}
	doc += `}`
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(doc))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(svc); err != nil {
		t.Fatal(err)
	}
	return s
}

func constAnswer(name string) Service {
	return ConstService(name, tree.Forest{syntax.MustParseDocument(`r{"ok"}`)})
}

// Every run must carry its own stats — the engine collects them
// unconditionally, not only when a registry is attached.
func TestRunStatsPopulated(t *testing.T) {
	s := statsSystem(t, 8, constAnswer("answer"))
	res := s.Run(RunOptions{Parallelism: 1})
	if res.Err != nil || !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	st := res.Stats
	if st.CallsFired != res.Attempts || st.CallsFired == 0 {
		t.Fatalf("CallsFired=%d Attempts=%d", st.CallsFired, res.Attempts)
	}
	if st.Eval.Count != int64(res.Attempts) {
		t.Fatalf("Eval.Count=%d, want %d (one per fired call)", st.Eval.Count, res.Attempts)
	}
	if st.MergeWait.Count < int64(res.Steps) {
		t.Fatalf("MergeWait.Count=%d < steps %d", st.MergeWait.Count, res.Steps)
	}
	if st.Eval.Max < st.Eval.Min || st.Eval.P50 == 0 {
		t.Fatalf("eval histogram malformed: %+v", st.Eval)
	}
}

// A shared registry accumulates across runs: counters add, histograms
// merge — the process-wide view next to per-run Stats.
func TestRunMetricsAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	var attempts int
	for i := 0; i < 3; i++ {
		s := statsSystem(t, 4, constAnswer("answer"))
		res := s.Run(RunOptions{Parallelism: 2, Metrics: reg})
		if res.Err != nil || !res.Terminated {
			t.Fatalf("run %d: %+v", i, res)
		}
		attempts += res.Attempts
	}
	if got := reg.Counter("engine.runs").Value(); got != 3 {
		t.Fatalf("engine.runs=%d, want 3", got)
	}
	if got := reg.Counter("engine.runs.terminated").Value(); got != 3 {
		t.Fatalf("engine.runs.terminated=%d, want 3", got)
	}
	if got := reg.Counter("engine.calls.fired").Value(); got != int64(attempts) {
		t.Fatalf("engine.calls.fired=%d, want %d", got, attempts)
	}
	if got := reg.Histogram("engine.eval_ns").Snapshot().Count; got != int64(attempts) {
		t.Fatalf("engine.eval_ns count=%d, want %d", got, attempts)
	}
	if got := reg.Gauge("engine.parallelism").Value(); got != 2 {
		t.Fatalf("engine.parallelism=%d, want 2", got)
	}
}

// The tracer's span stream must reconstruct the run: one sweep span per
// sweep, one call span per attempt, one merge span per step.
func TestRunTracerSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	s := statsSystem(t, 6, constAnswer("answer"))
	res := s.Run(RunOptions{Parallelism: 3, Tracer: tr})
	if res.Err != nil || !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var span obs.Span
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		counts[span.Kind]++
		if span.Kind == "call" && span.Name != "answer" {
			t.Fatalf("call span names %q", span.Name)
		}
	}
	if counts["sweep"] != res.Sweeps {
		t.Fatalf("sweep spans=%d, want %d", counts["sweep"], res.Sweeps)
	}
	if counts["call"] != res.Attempts {
		t.Fatalf("call spans=%d, want %d", counts["call"], res.Attempts)
	}
	if counts["merge"] != res.Steps {
		t.Fatalf("merge spans=%d, want %d", counts["merge"], res.Steps)
	}
}

// Satellite regression: a RunResult returned from a Degrade run with
// Parallelism > 1 must be fully detached from engine state — its Errors
// map is a clone, safe to mutate even while late workers from the
// stopped sweep are still draining. Run under -race.
func TestDegradeParallelResultDetached(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		s := NewSystem()
		doc := `top{`
		for i := 0; i < 12; i++ {
			if i > 0 {
				doc += ","
			}
			doc += fmt.Sprintf(`slot%d{!slow}`, i)
		}
		doc += `,fast{!quick}}`
		if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(doc))); err != nil {
			t.Fatal(err)
		}
		// slow fails after a delay, so when MaxSteps stops the run early
		// there are still stragglers heading for recordFailure.
		slow := &GoService{Name: "slow", Fn: func(ctx context.Context, _ Binding) (tree.Forest, error) {
			select {
			case <-time.After(time.Millisecond):
			case <-ctx.Done():
			}
			return nil, fmt.Errorf("slow: always fails")
		}}
		if err := s.AddService(slow); err != nil {
			t.Fatal(err)
		}
		if err := s.AddService(constAnswer("quick")); err != nil {
			t.Fatal(err)
		}
		res := s.Run(RunOptions{ErrorPolicy: Degrade, Parallelism: 8, MaxSteps: 1})
		// Mutating the returned map must not race with draining workers.
		if res.Errors == nil {
			res.Errors = map[string]int{}
		}
		res.Errors["mutated-by-caller"] = iter
		res.Failures++
	}
}
