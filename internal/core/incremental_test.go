package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/syntax"
	"axml/internal/tree"
)

// Both schedules — semi-naive sweeps at parallelism 1, the event-driven
// worklist above — must reach exactly the fixpoint of the sequential
// sweep on every fixture at every parallelism level (Theorem 2.1 plus
// the delta-completeness of the baselines).
func TestIncrementalMatchesSequentialDigests(t *testing.T) {
	for name, mk := range engineFixtures() {
		t.Run(name, func(t *testing.T) {
			seq := mk()
			sres := seq.Run(RunOptions{Parallelism: 1})
			if sres.Err != nil || !sres.Terminated {
				t.Fatalf("sequential run: %+v", sres)
			}
			want := seq.CanonicalString()
			for _, par := range []int{1, 2, 4, 8} {
				s := mk()
				res := s.Run(RunOptions{Parallelism: par})
				if res.Err != nil || !res.Terminated {
					t.Fatalf("incremental parallelism %d: %+v", par, res)
				}
				if got := s.CanonicalString(); got != want {
					t.Fatalf("incremental parallelism %d diverged:\n%s\nwant\n%s", par, got, want)
				}
			}
		})
	}
}

// The point of the exercise: on a fan-out workload the worklist must
// fire strictly fewer calls than the sweep (whose second sweep re-fires
// every call just to discover nothing moved).
func TestIncrementalFiresFewerCalls(t *testing.T) {
	mk := func() *System {
		src := "doc edges = g{e{a{\"n0\"},b{\"n1\"}},e{a{\"n1\"},b{\"n2\"}},e{a{\"n2\"},b{\"n0\"}}}\ndoc portal = p{"
		for i := 0; i < 8; i++ {
			if i > 0 {
				src += ","
			}
			src += fmt.Sprintf(`node{name{"n%d"},!succ}`, i%3)
		}
		src += "}\nfunc succ = out{$y} :- context/node{name{$x}}, edges/g{e{a{$x},b{$y}}}\n"
		return MustParseSystem(src)
	}
	base := mk()
	bres := base.Run(RunOptions{Parallelism: 1})
	if bres.Err != nil || !bres.Terminated {
		t.Fatalf("sweep run: %+v", bres)
	}
	inc := mk()
	ires := inc.Run(RunOptions{Parallelism: 4})
	if ires.Err != nil || !ires.Terminated {
		t.Fatalf("incremental run: %+v", ires)
	}
	if got, want := inc.CanonicalString(), base.CanonicalString(); got != want {
		t.Fatalf("fixpoints diverged:\n%s\nwant\n%s", got, want)
	}
	if ires.Attempts >= bres.Attempts {
		t.Fatalf("worklist fired %d calls, sweep fired %d; want strictly fewer",
			ires.Attempts, bres.Attempts)
	}
	if ires.Stats.Enqueues == 0 {
		t.Fatal("event engine reported zero enqueues")
	}
}

// Recursion through a named document (the transitive closure reads and
// writes d1) must keep re-triggering through the reverse index until the
// closure is complete, and the re-evaluations must be delta evaluations.
func TestIncrementalRecursionDeltaEvals(t *testing.T) {
	s := MustParseSystem(tcSystem)
	res := s.Run(RunOptions{Parallelism: 4})
	if res.Err != nil || !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	want := MustParseSystem(tcSystem)
	want.Run(RunOptions{Parallelism: 1})
	if got := s.CanonicalString(); got != want.CanonicalString() {
		t.Fatalf("fixpoint diverged:\n%s", got)
	}
	if res.Stats.DeltaEvals == 0 {
		t.Fatal("recursive run performed no delta evaluations")
	}
}

// The Parallelism 1 sweep is deterministic — two runs agree on every
// counter — and semi-naive: its re-evaluations run against deltas.
func TestIncrementalSequentialSweepDeterministic(t *testing.T) {
	a := MustParseSystem(tcSystem)
	ares := a.Run(RunOptions{Parallelism: 1})
	b := MustParseSystem(tcSystem)
	bres := b.Run(RunOptions{Parallelism: 1})
	if bres.Err != nil || !bres.Terminated {
		t.Fatalf("run: %+v", bres)
	}
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatalf("digest diverged")
	}
	if ares.Sweeps != bres.Sweeps || ares.Steps != bres.Steps || ares.Attempts != bres.Attempts ||
		ares.Stats.CallsSterile != bres.Stats.CallsSterile || ares.Stats.DeltaEvals != bres.Stats.DeltaEvals {
		t.Fatalf("sequential sweeps not deterministic:\n%+v\n%+v", ares, bres)
	}
	if bres.Stats.DeltaEvals == 0 {
		t.Fatal("sequential sweep performed no delta evaluations")
	}
}

// Black boxes have unknown read sets: the worklist must
// conservatively re-wake them on every merge and still reach the shared
// fixpoint on a mixed declarative/black-box system.
func TestIncrementalBlackBoxConservative(t *testing.T) {
	mk := func() *System {
		s := NewSystem()
		if err := s.AddDocument(tree.NewDocument("d",
			syntax.MustParseDocument(`root{x{!f},y{!copy}}`))); err != nil {
			t.Fatal(err)
		}
		if err := s.AddService(ConstService("f",
			tree.Forest{syntax.MustParseDocument(`item{"1"}`)})); err != nil {
			t.Fatal(err)
		}
		q := syntax.MustParseQuery(`copy{$v} :- d/root{x{item{$v}}}`)
		q.Name = "copy"
		if err := s.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq := mk()
	seq.Run(RunOptions{Parallelism: 1})
	want := seq.CanonicalString()
	s := mk()
	res := s.Run(RunOptions{Parallelism: 4})
	if res.Err != nil || !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	if got := s.CanonicalString(); got != want {
		t.Fatalf("mixed-system fixpoint diverged:\n%s\nwant\n%s", got, want)
	}
}

// Cancellation must stop the worklist run promptly, with workers
// parked on the worklist woken and the context error reported.
func TestIncrementalCancellation(t *testing.T) {
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d",
		syntax.MustParseDocument(`a{!slow}`))); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	if err := s.AddService(&GoService{Name: "slow",
		Fn: func(ctx context.Context, b Binding) (tree.Forest, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	done := make(chan RunResult, 1)
	go func() { done <- s.RunContext(ctx, RunOptions{Parallelism: 4}) }()
	select {
	case res := <-done:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", res.Err)
		}
		if res.Terminated {
			t.Fatal("cancelled run reported terminated")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event-driven RunContext did not return after cancel")
	}
}

// Degrade on the worklist: a transiently failing call is retried and the
// run still terminates at the full fixpoint; a permanently failing call
// parks the run into a non-terminated result, like the sweep's
// fruitless-sweep cap.
func TestIncrementalDegrade(t *testing.T) {
	t.Run("transient", func(t *testing.T) {
		var calls atomic.Int64
		s := NewSystem()
		if err := s.AddDocument(tree.NewDocument("d",
			syntax.MustParseDocument(`root{a{!flaky},b{!ok}}`))); err != nil {
			t.Fatal(err)
		}
		if err := s.AddService(&GoService{Name: "flaky",
			Fn: func(ctx context.Context, b Binding) (tree.Forest, error) {
				if calls.Add(1) == 1 {
					return nil, errors.New("transient")
				}
				return tree.Forest{tree.NewLabel("answered")}, nil
			}}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddService(ConstService("ok",
			tree.Forest{tree.NewLabel("fine")})); err != nil {
			t.Fatal(err)
		}
		res := s.Run(RunOptions{Parallelism: 4, ErrorPolicy: Degrade})
		if !res.Terminated {
			t.Fatalf("transient failure prevented termination: %+v", res)
		}
		if res.Failures != 1 {
			t.Fatalf("failures = %d, want 1", res.Failures)
		}
		want := syntax.MustParseDocument(`root{a{!flaky,answered},b{!ok,fine}}`)
		if !tree.Isomorphic(s.Document("d").Root, want) {
			t.Fatalf("fixpoint = %s", s.Document("d").Root.CanonicalString())
		}
	})
	t.Run("permanent", func(t *testing.T) {
		s := NewSystem()
		if err := s.AddDocument(tree.NewDocument("d",
			syntax.MustParseDocument(`root{a{!broken}}`))); err != nil {
			t.Fatal(err)
		}
		if err := s.AddService(&GoService{Name: "broken",
			Fn: func(ctx context.Context, b Binding) (tree.Forest, error) {
				return nil, errors.New("permanent")
			}}); err != nil {
			t.Fatal(err)
		}
		res := s.Run(RunOptions{Parallelism: 4, ErrorPolicy: Degrade})
		if res.Terminated {
			t.Fatalf("terminated despite permanent failure: %+v", res)
		}
		if res.Err == nil || res.Failures == 0 {
			t.Fatalf("failures=%d err=%v", res.Failures, res.Err)
		}
	})
}

// Satellite: purgeSeen + attached interplay when a subsuming answer
// prunes a subtree holding a live call mid-run, under parallelism. g's
// answer a{b{"1"},b{"2"},!h} subsumes the pre-existing
// sibling a{b{"1"},!h}, so reduction detaches that sibling's !h call
// while it may be queued or in flight; the run must stay race-clean and
// reach the sequential fixpoint, and the gate map must not leak the
// detached node.
func TestPrunedCallMidRunUnderParallelism(t *testing.T) {
	const src = `
doc d = root{a{b{"1"},!h},!g}
func g = a{b{"1"},b{"2"},!h} :-
func h = hit{"x"} :-
`
	seq := MustParseSystem(src)
	sres := seq.Run(RunOptions{Parallelism: 1})
	if sres.Err != nil || !sres.Terminated {
		t.Fatalf("sequential: %+v", sres)
	}
	want := seq.CanonicalString()
	for _, par := range []int{2, 8} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			// Repeat to give the scheduler chances to interleave the
			// pruning merge with the doomed call's firing.
			for i := 0; i < 25; i++ {
				s := MustParseSystem(src)
				res := s.Run(RunOptions{Parallelism: par})
				if res.Err != nil || !res.Terminated {
					t.Fatalf("run %d: %+v", i, res)
				}
				if got := s.CanonicalString(); got != want {
					t.Fatalf("run %d diverged:\n%s\nwant\n%s", i, got, want)
				}
			}
		})
	}
}
