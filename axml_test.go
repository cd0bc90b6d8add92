package axml_test

import (
	"context"
	"strings"
	"testing"

	"axml"
)

// TestFacadeQuickstart walks the README's quickstart through the public
// API only.
func TestFacadeQuickstart(t *testing.T) {
	doc := axml.MustParseDocument(
		`directory{cd{title{"Body and Soul"},!GetRating{"Body and Soul"}}}`)
	sys := axml.NewSystem()
	if err := sys.AddDocument(axml.NewDocument("d", doc)); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddService(axml.ConstService("GetRating",
		axml.Forest{axml.MustParseDocument(`rating{"****"}`)})); err != nil {
		t.Fatal(err)
	}
	res := sys.Run(axml.RunOptions{})
	if !res.Terminated || res.Steps != 1 {
		t.Fatalf("run: %+v", res)
	}
	q := axml.MustParseQuery(`out{$r} :- d/directory{cd{rating{$r}}}`)
	ans, err := sys.SnapshotQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || !strings.Contains(ans[0].String(), "****") {
		t.Fatalf("answer: %v", ans)
	}
}

func TestFacadeSubsumptionHelpers(t *testing.T) {
	a := axml.MustParseDocument(`a{b{c,c},b{c,d,d}}`)
	r := axml.Reduce(a)
	if !axml.Equivalent(a, r) || !axml.Isomorphic(r, axml.MustParseDocument(`a{b{c,d}}`)) {
		t.Fatalf("Reduce = %s", r)
	}
	if !axml.Subsumed(axml.MustParseDocument(`a{b}`), a) {
		t.Fatal("Subsumed broken")
	}
	u := axml.Union(axml.MustParseDocument(`a{x}`), axml.MustParseDocument(`a{y}`))
	if !axml.Isomorphic(u, axml.MustParseDocument(`a{x,y}`)) {
		t.Fatalf("Union = %s", u)
	}
}

func TestFacadeRegularAndLazy(t *testing.T) {
	sys := axml.MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
	ok, g, err := axml.DecideTermination(sys, axml.RegularBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok || !g.HasCycle() {
		t.Fatal("loop not detected")
	}
	lres, err := axml.LazyEval(context.Background(), sys, axml.MustParseQuery(`hit :- d/a{a{a}}`), axml.RunOptions{MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(lres.Answer) != 1 {
		t.Fatalf("lazy answer: %v", lres.Answer)
	}
}

func TestFacadePathExpressions(t *testing.T) {
	docs := axml.Docs{"d": axml.MustParseDocument(`lib{a{b{leaf{"x"}}}}`)}
	rq := axml.MustParseRQuery(`out{$v} :- d/lib{<_*.leaf>{$v}}`)
	ans, err := axml.SnapshotR(rq, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Fatalf("path answer: %v", ans)
	}
	if _, err := axml.ParseRegex(`(a|b)*.c`); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDatalogAndTuring(t *testing.T) {
	prog := axml.TransitiveClosure([][2]string{{"a", "b"}, {"b", "c"}})
	sys, err := prog.ToAXML()
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.Run(axml.RunOptions{}); !res.Terminated {
		t.Fatal("TC did not terminate")
	}
	m := &axml.TuringMachine{
		Name: "noop", Start: "s", Accept: "acc", Blank: "_",
		Rules: []axml.TuringRule{{State: "s", Read: "_", Write: "_", Move: 1, Next: "acc"}},
	}
	res, err := axml.SimulateTuring(m, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("noop machine rejected")
	}
}

func TestFacadeReservedNames(t *testing.T) {
	if axml.Input != "input" || axml.Context != "context" {
		t.Fatal("reserved names changed")
	}
	sys := axml.NewSystem()
	if err := sys.AddDocument(axml.NewDocument(axml.Input, axml.NewLabel("a"))); err == nil {
		t.Fatal("reserved name accepted")
	}
}
