package core

import (
	"testing"

	"axml/internal/syntax"
	"axml/internal/tree"
)

func TestAncestorsAndAttached(t *testing.T) {
	s := MustParseSystem(`
doc d = a{b{c{!f}}}
func f = hit :-
`)
	calls := s.Calls()
	if len(calls) != 1 {
		t.Fatalf("calls = %d", len(calls))
	}
	anc := calls[0].Ancestors()
	if len(anc) != 3 || anc[0].Name != "a" || anc[2].Name != "c" {
		names := make([]string, len(anc))
		for i, n := range anc {
			names[i] = n.Name
		}
		t.Fatalf("ancestors = %v", names)
	}
	if !s.Attached(calls[0]) {
		t.Fatal("fresh call not attached")
	}
	// Detach the subtree holding the call: Attached must notice.
	s.Document("d").Root.Children = nil
	if s.Attached(calls[0]) {
		t.Fatal("detached call reported attached")
	}
}

func TestAttachedFallbackWithoutPath(t *testing.T) {
	s := MustParseSystem(`
doc d = a{!f}
func f = hit :-
`)
	occ := s.Document("d").Root.FuncNodes()[0]
	hand := Call{Doc: "d", Node: occ.Node, Parent: occ.Parent}
	if hand.Ancestors() != nil {
		t.Fatal("hand-built call has ancestors")
	}
	if !s.Attached(hand) {
		t.Fatal("fallback findPath search failed")
	}
}

func TestCallsEnumerateParamsOfCalls(t *testing.T) {
	s := MustParseSystem(`
doc d = a{!outer{b{!inner}}}
func outer = o :-
func inner = i :-
`)
	calls := s.Calls()
	if len(calls) != 2 {
		t.Fatalf("calls = %d, want outer and nested inner", len(calls))
	}
	names := map[string]string{}
	for _, c := range calls {
		names[c.Node.Name] = c.Parent.Name
	}
	if names["inner"] != "b" {
		t.Fatalf("inner parent = %q", names["inner"])
	}
}

// A sweep budget is only defined for the sweeping schedule, so it selects
// it: at default parallelism this non-terminating system must stop after
// three sweeps instead of draining a worklist to DefaultMaxSteps.
func TestMaxSweepsOption(t *testing.T) {
	s := MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
	res := s.Run(RunOptions{MaxSweeps: 3})
	if res.Terminated {
		t.Fatal("terminated")
	}
	if res.Sweeps != 3 {
		t.Fatalf("sweeps = %d", res.Sweeps)
	}
}

// The version gate: re-running a terminated system performs zero attempts
// beyond one empty confirmation sweep, and repeated Run calls stay cheap.
func TestVersionGateSkipsSterileCalls(t *testing.T) {
	s := MustParseSystem(tcSystem)
	first := s.Run(RunOptions{})
	if !first.Terminated {
		t.Fatal("did not terminate")
	}
	second := s.Run(RunOptions{Parallelism: 1})
	if !second.Terminated || second.Sweeps != 1 {
		t.Fatalf("re-run: %+v", second)
	}
	if second.Steps != 0 {
		t.Fatalf("re-run steps = %d", second.Steps)
	}
}

// Gating must not suppress productive invocations: a service reading a
// document that changes later must fire again.
func TestVersionGateReenablesOnChange(t *testing.T) {
	s := MustParseSystem(`
doc src = r{v{1}}
doc d = top{!copy,!late}
func copy = got{$x} :- src/r{v{$x}}
func late = r2{v{2}} :-
`)
	// First run: copy sees v1 only; then we grow src by hand and re-run.
	s.Run(RunOptions{})
	got := s.Document("d").Root
	if got.CanonicalHash() == (tree.Hash{}) {
		t.Fatal("sanity")
	}
	src := s.Document("src").Root
	src.Children = append(src.Children, syntax.MustParseDocument(`v{3}`))
	s.Touch("src") // external mutation: bump the version, restamp the document
	res := s.Run(RunOptions{})
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	want := syntax.MustParseDocument(`top{!copy,!late,got{"1"},got{"3"},r2{v{"2"}}}`)
	if !tree.Isomorphic(s.Document("d").Root, want) {
		t.Fatalf("doc = %s", s.Document("d").Root.CanonicalString())
	}
}

func TestBindingAliasesLiveTrees(t *testing.T) {
	// The binding contract: services see live nodes; QueryService copies
	// on instantiation so results never alias the document.
	s := MustParseSystem(`
doc d = a{src{"x"},!f}
func f = out{#T} :- context/a{src{#T}}
`)
	res := s.Run(RunOptions{MaxSteps: 5})
	_ = res
	root := s.Document("d").Root
	var outNode, srcVal *tree.Node
	root.Walk(func(n, parent *tree.Node) bool {
		switch n.Name {
		case "out":
			outNode = n
		case "src":
			if parent == root {
				srcVal = n.Children[0]
			}
		}
		return true
	})
	if outNode == nil || srcVal == nil {
		t.Fatalf("shape: %s", root.CanonicalString())
	}
	if outNode.Children[0] == srcVal {
		t.Fatal("result aliases the source subtree")
	}
}
