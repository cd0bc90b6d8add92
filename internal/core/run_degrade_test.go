package core

import (
	"context"
	"fmt"
	"testing"

	"axml/internal/syntax"
	"axml/internal/tree"
)

// flakyConst is a ConstService that fails its first failFirst invocations.
func flakyConst(name string, result tree.Forest, failFirst int) *GoService {
	calls := 0
	return &GoService{Name: name, Fn: func(context.Context, Binding) (tree.Forest, error) {
		calls++
		if calls <= failFirst {
			return nil, fmt.Errorf("%s: transient failure %d", name, calls)
		}
		return result.Copy(), nil
	}}
}

func faultySystem(t *testing.T, failFirst int) *System {
	t.Helper()
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d",
		syntax.MustParseDocument(`top{!flaky,!steady}`))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(flakyConst("flaky",
		tree.Forest{syntax.MustParseDocument(`result{"x"}`)}, failFirst)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(ConstService("steady",
		tree.Forest{syntax.MustParseDocument(`s{"y"}`)})); err != nil {
		t.Fatal(err)
	}
	return s
}

// Confluence under failures (Theorem 2.1): a degraded run that rides
// through transient errors reaches the same fixpoint as a failure-free
// run of the same system.
func TestDegradeReachesCleanFixpoint(t *testing.T) {
	clean := faultySystem(t, 0)
	if res := clean.Run(RunOptions{}); !res.Terminated || res.Err != nil {
		t.Fatalf("clean run: %+v", res)
	}

	faulty := faultySystem(t, 2)
	res := faulty.Run(RunOptions{ErrorPolicy: Degrade})
	if !res.Terminated {
		t.Fatalf("degraded run did not terminate: %+v", res)
	}
	if res.Failures != 2 || res.Errors["flaky"] != 2 {
		t.Fatalf("failures=%d errors=%v", res.Failures, res.Errors)
	}
	if res.Err == nil {
		t.Fatal("first error not recorded")
	}
	if faulty.CanonicalString() != clean.CanonicalString() {
		t.Fatalf("fixpoints differ:\n%s\nvs\n%s",
			faulty.CanonicalString(), clean.CanonicalString())
	}
}

// The zero-valued policy stays fail-fast: the first error aborts the run
// exactly as before.
func TestFailFastRemainsDefault(t *testing.T) {
	s := faultySystem(t, 1)
	res := s.Run(RunOptions{Parallelism: 1}) // "nothing else ran" needs sequential dispatch
	if res.Err == nil || res.Terminated {
		t.Fatalf("fail-fast run: %+v", res)
	}
	if res.Failures != 1 || res.Errors["flaky"] != 1 {
		t.Fatalf("failures=%d errors=%v", res.Failures, res.Errors)
	}
	// The flaky call is first in document order: nothing else ran.
	if res.Attempts != 1 || res.Steps != 0 {
		t.Fatalf("attempts=%d steps=%d", res.Attempts, res.Steps)
	}
}

// A permanently failing service must not spin the degraded loop forever:
// after MaxErrorSweeps consecutive fruitless all-error sweeps the run
// gives up, unterminated, with the error preserved.
func TestDegradeGivesUpOnPermanentFailure(t *testing.T) {
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d",
		syntax.MustParseDocument(`a{!dead}`))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(&GoService{Name: "dead", Fn: func(context.Context, Binding) (tree.Forest, error) {
		return nil, fmt.Errorf("dead: permanent failure")
	}}); err != nil {
		t.Fatal(err)
	}
	res := s.Run(RunOptions{Parallelism: 1, ErrorPolicy: Degrade})
	if res.Terminated {
		t.Fatalf("terminated despite permanent failure: %+v", res)
	}
	if res.Sweeps != DefaultMaxErrorSweeps {
		t.Fatalf("sweeps = %d, want %d", res.Sweeps, DefaultMaxErrorSweeps)
	}
	if res.Failures != DefaultMaxErrorSweeps || res.Err == nil {
		t.Fatalf("failures=%d err=%v", res.Failures, res.Err)
	}
}

// The version-gate map must not retain entries for nodes that reduction
// pruned (they can never be invoked again).
func TestPurgeSeenDropsDetachedNodes(t *testing.T) {
	kept := tree.NewFunc("f")
	pruned := tree.NewFunc("g")
	seen := map[*tree.Node][]uint64{kept: {1}, pruned: {2}}
	purgeSeen(seen, []Call{{Node: kept}})
	if len(seen) != 1 {
		t.Fatalf("seen = %d entries", len(seen))
	}
	if _, ok := seen[kept]; !ok {
		t.Fatal("live entry purged")
	}
	if _, ok := seen[pruned]; ok {
		t.Fatal("detached entry retained")
	}
}

// End to end: a call node whose subtree is pruned by a later, subsuming
// answer disappears from the gate map at the next sweep boundary while the
// run still reaches the right fixpoint.
func TestRunSurvivesPrunedCallNodes(t *testing.T) {
	// small's answer box{leaf} is subsumed by big's box{leaf,extra{"z"}}:
	// once big fires, reduction prunes small's whole result subtree —
	// including any call nodes an answer might carry.
	s := MustParseSystem(`
doc d = top{!small,!big}
func small = box{leaf} :-
func big = box{leaf,extra{"z"}} :-
`)
	res := s.Run(RunOptions{})
	if !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	want := syntax.MustParseDocument(`top{!small,!big,box{leaf,extra{"z"}}}`)
	if !tree.Isomorphic(s.Document("d").Root, want) {
		t.Fatalf("doc = %s", s.Document("d").Root.CanonicalString())
	}
}
