package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"axml/internal/syntax"
	"axml/internal/tree"
)

// Re-running a terminated system fires nothing: every call's committed
// gate still equals its read state. The sweep's confirming pass commits
// every call at the final state. The worklist does not re-fire a call its
// own merge could not have changed (the atom-local check), so such a call's
// gate may stay one merge behind: the next run confirms it once, adding
// nothing, and the run after that fires nothing either.
func TestRerunOfTerminatedSystemFiresNothing(t *testing.T) {
	for name, mk := range engineFixtures() {
		for _, par := range []int{1, 2} {
			s := mk()
			if res := s.Run(RunOptions{Parallelism: par}); !res.Terminated {
				t.Fatalf("%s par %d: first run: %+v", name, par, res)
			}
			if par > 1 {
				if res := s.Run(RunOptions{Parallelism: par}); !res.Terminated || res.Steps != 0 {
					t.Fatalf("%s par %d: confirming run: %+v", name, par, res)
				}
			}
			calls := s.CountCalls()
			res := s.Run(RunOptions{Parallelism: par})
			if !res.Terminated || res.Stats.CallsFired != 0 || res.Stats.CallsSterile != calls {
				t.Fatalf("%s par %d: re-run fired %d, sterile %d of %d calls (terminated %v)",
					name, par, res.Stats.CallsFired, res.Stats.CallsSterile, calls, res.Terminated)
			}
		}
	}
}

// A black box has no known read set, so no gate outlives its run: it
// fires once per run even when nothing moved, while the declarative call
// beside it stays sterile.
func TestGoServiceFiresOncePerRun(t *testing.T) {
	s := MustParseSystem(`
doc src = r{v{1}}
func copy = got{$x} :- src/r{v{$x}}
`)
	var invoked atomic.Int32
	if err := s.AddService(&GoService{Name: "box", Fn: func(context.Context, Binding) (tree.Forest, error) {
		invoked.Add(1)
		return tree.Forest{tree.NewLabel("boxed")}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`top{!copy,!box}`))); err != nil {
		t.Fatal(err)
	}
	if res := s.Run(RunOptions{Parallelism: 1}); !res.Terminated {
		t.Fatalf("first run: %+v", res)
	}
	for run := 2; run <= 3; run++ {
		before := invoked.Load()
		res := s.Run(RunOptions{Parallelism: 1})
		if got := invoked.Load() - before; !res.Terminated || got != 1 || res.Stats.CallsFired != 1 {
			t.Fatalf("run %d: box invoked %d times, %d calls fired; want 1 and 1", run, got, res.Stats.CallsFired)
		}
	}
}

// A by-hand edit made through Touch restamps the document, so the next
// run's first attempt — a delta against the committed baseline — sees it,
// and the result equals a fresh run over the edited document.
func TestTouchedEditReachesTheNextRunsDelta(t *testing.T) {
	const src = `
doc e = g{e{a{1},b{2}},e{a{2},b{3}}}
doc d = r{!tc}
func tc = p{a{$x},b{$y}} :- e/g{e{a{$x},b{$z}}}, e/g{e{a{$z},b{$y}}}
`
	s := MustParseSystem(src)
	if res := s.Run(RunOptions{Parallelism: 1}); !res.Terminated {
		t.Fatalf("first run: %+v", res)
	}
	edge := `e{a{3},b{4}}`
	s.Document("e").Root.Children = append(s.Document("e").Root.Children, syntax.MustParseDocument(edge))
	s.Touch("e")
	res := s.Run(RunOptions{Parallelism: 1})
	if !res.Terminated || res.Stats.DeltaEvals == 0 {
		t.Fatalf("second run: %+v (want a delta evaluation)", res)
	}
	fresh := MustParseSystem(`
doc e = g{e{a{1},b{2}},e{a{2},b{3}},` + edge + `}
doc d = r{!tc}
func tc = p{a{$x},b{$y}} :- e/g{e{a{$x},b{$z}}}, e/g{e{a{$z},b{$y}}}
`)
	fresh.Run(RunOptions{Parallelism: 1})
	if got, want := s.CanonicalString(), fresh.CanonicalString(); got != want {
		t.Fatalf("after the edit:\n%s\nwant\n%s", got, want)
	}
}

// Concurrent runs on one system share the committed gate (go test -race):
// both reach the fixpoint. A run after them adds nothing — it may confirm
// a call whose gate a racing or worklist merge left behind — and the run
// after that fires nothing.
func TestConcurrentRunsShareTheCommittedGate(t *testing.T) {
	for name, mk := range engineFixtures() {
		want := mk()
		want.Run(RunOptions{Parallelism: 1})
		s := mk()
		var wg sync.WaitGroup
		for _, par := range []int{1, 2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if res := s.Run(RunOptions{Parallelism: par}); res.Err != nil {
					t.Errorf("%s par %d: %v", name, par, res.Err)
				}
			}()
		}
		wg.Wait()
		if got := s.CanonicalString(); got != want.CanonicalString() {
			t.Fatalf("%s: concurrent runs reached\n%s\nwant\n%s", name, got, want.CanonicalString())
		}
		if res := s.Run(RunOptions{Parallelism: 1}); res.Steps != 0 {
			t.Fatalf("%s: a run after the concurrent ones grew the system: %+v", name, res)
		}
		if res := s.Run(RunOptions{Parallelism: 1}); res.Stats.CallsFired != 0 {
			t.Fatalf("%s: a run after the concurrent ones fired %d calls", name, res.Stats.CallsFired)
		}
	}
}

// The committed gate keeps no entry for a call node reduction detached:
// inner fires inside small's box, then big's answer subsumes that box and
// prunes it, inner's node included. The first run stops right after that
// merge, so only the next run's sweep start can drop the entry.
func TestCommittedGateDropsDetachedCalls(t *testing.T) {
	s := MustParseSystem(`
doc d = top{!small,!big,!b,!a}
func small = box{leaf,!inner} :-
func inner = got :-
func a = s1 :-
func b = s2 :- context/top{s1}
func big = box{leaf,!inner,got,extra{"z"}} :- context/top{s2}
`)
	s.Run(RunOptions{Parallelism: 1, MaxSteps: 5}) // small, a, b, inner, big
	if res := s.Run(RunOptions{Parallelism: 1}); !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	want := syntax.MustParseDocument(`top{!small,!big,!b,!a,s1,s2,box{leaf,!inner,got,extra{"z"}}}`)
	if !tree.Isomorphic(s.Document("d").Root, want) {
		t.Fatalf("doc = %s", s.Document("d").Root.CanonicalString())
	}
	attached := map[*tree.Node]bool{}
	for _, c := range s.Calls() {
		attached[c.Node] = true
	}
	for n := range s.gate {
		if !attached[n] {
			t.Fatalf("committed gate holds detached call %s", n.Name)
		}
	}
}
