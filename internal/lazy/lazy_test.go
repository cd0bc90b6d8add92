package lazy

import (
	"context"
	"testing"

	"axml/internal/core"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// portalSystem models the jazz portal: ratings obtainable by calls, one
// irrelevant branch (videos) whose calls a rating query never needs, and a
// recursive feed that would not terminate if expanded naively.
const portalSystem = `
doc ratings = db{entry{title{"Body and Soul"},stars{"4"}},entry{title{"Naima"},stars{"5"}}}
doc portal = directory{
  cd{title{"Body and Soul"},!GetRating{x}},
  cd{title{"Naima"},!GetRating{x}},
  videos{!VideoFeed}}
func GetRating = rating{$s} :- context/cd{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
func VideoFeed = clip{!VideoFeed} :-
`

func ratingQuery() string {
	return `out{$t,$s} :- portal/directory{cd{title{$t},rating{$s}}}`
}

func TestAnalyzeMarksOnlyNeededCalls(t *testing.T) {
	s := core.MustParseSystem(portalSystem)
	q := syntax.MustParseQuery(ratingQuery())
	an, err := Analyze(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if an.WeaklyStable() {
		t.Fatal("pending rating calls but weakly stable")
	}
	names := map[string]int{}
	for _, c := range an.Relevant {
		names[c.Node.Name]++
	}
	if names["GetRating"] != 2 {
		t.Errorf("GetRating relevance = %d, want 2", names["GetRating"])
	}
	if names["VideoFeed"] != 0 {
		t.Errorf("VideoFeed marked relevant: %v", names)
	}
	if !an.NeededDocs["portal"] || !an.NeededDocs["ratings"] {
		t.Errorf("needed docs: %v", an.NeededDocs)
	}
}

func TestEvalLazySkipsInfiniteIrrelevantBranch(t *testing.T) {
	s := core.MustParseSystem(portalSystem)
	q := syntax.MustParseQuery(ratingQuery())
	res, err := Eval(context.Background(), s, q, core.RunOptions{MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatalf("lazy evaluation did not stabilize: %+v", res)
	}
	if len(res.Answer) != 2 {
		t.Fatalf("answers = %s", res.Answer.CanonicalString())
	}
	want := subsume.ReduceForest(tree.Forest{
		syntax.MustParseDocument(`out{"Body and Soul","4"}`),
		syntax.MustParseDocument(`out{"Naima","5"}`),
	})
	if res.Answer.CanonicalString() != want.CanonicalString() {
		t.Fatalf("answer = %s, want %s", res.Answer.CanonicalString(), want.CanonicalString())
	}
	// The infinite video feed must not have been touched.
	videos := s.Document("portal").Root
	feedCalls := 0
	videos.Walk(func(n, _ *tree.Node) bool {
		if n.Kind == tree.Func && n.Name == "VideoFeed" {
			feedCalls++
		}
		return true
	})
	if feedCalls != 1 {
		t.Fatalf("VideoFeed expanded %d times", feedCalls)
	}
	// Naive evaluation within the same budget does NOT stabilize.
	naive := core.MustParseSystem(portalSystem)
	nres := naive.Run(core.RunOptions{MaxSteps: 100})
	if nres.Terminated {
		t.Fatal("naive run unexpectedly terminated")
	}
}

func TestEvalMatchesNaiveOnTerminatingSystem(t *testing.T) {
	const tc = `
doc  d0 = r{t{a{1},b{2}},t{a{2},b{3}},t{a{3},b{4}}}
doc  d1 = r{!g,!f}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`
	q := syntax.MustParseQuery(`pair{$x,$y} :- d1/r{t{a{$x},b{$y}}}`)
	lazySys := core.MustParseSystem(tc)
	lres, err := Eval(context.Background(), lazySys, q, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	naive := core.MustParseSystem(tc)
	nres, err := naive.EvalQuery(q, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !lres.Stable || !nres.Exact {
		t.Fatalf("stability: lazy=%v naive=%v", lres.Stable, nres.Exact)
	}
	if lres.Answer.CanonicalString() != nres.Answer.CanonicalString() {
		t.Fatalf("lazy %s != naive %s", lres.Answer.CanonicalString(), nres.Answer.CanonicalString())
	}
}

func TestWeaklyStableImmediately(t *testing.T) {
	// Query over a document without calls: stable with zero invocations.
	s := core.MustParseSystem(portalSystem)
	q := syntax.MustParseQuery(`out{$s} :- ratings/db{entry{stars{$s}}}`)
	res, err := Eval(context.Background(), s, q, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable || res.Invocations != 0 {
		t.Fatalf("expected immediate stability: %+v", res)
	}
	if len(res.Answer) != 2 {
		t.Fatalf("answers = %v", res.Answer)
	}
}

func TestAnalyzeBlackBoxIsRelevantAtReachablePositions(t *testing.T) {
	s := core.NewSystem()
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{b{!f},c{!f}}`))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(core.ConstService("f", tree.Forest{syntax.MustParseDocument(`hit`)})); err != nil {
		t.Fatal(err)
	}
	q := syntax.MustParseQuery(`out :- d/a{b{hit}}`)
	an, err := Analyze(s, q)
	if err != nil {
		t.Fatal(err)
	}
	// Only the call under b is relevant: the pattern never reaches c.
	if len(an.Relevant) != 1 || an.Relevant[0].Parent.Name != "b" {
		t.Fatalf("relevant = %+v", an.Relevant)
	}
}

func TestAnalyzeContextConservatism(t *testing.T) {
	// A relevant context-using service drags sibling calls in.
	s := core.MustParseSystem(`
doc aux = k{v{"1"}}
doc d = a{b{!f,!h}}
func f = out{$x} :- context/b{got{$x}}
func h = got{$x} :- aux/k{v{$x}}
`)
	q := syntax.MustParseQuery(`res{$x} :- d/a{b{out{$x}}}`)
	an, err := Analyze(s, q)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range an.Relevant {
		names[c.Node.Name] = true
	}
	if !names["f"] || !names["h"] {
		t.Fatalf("context conservatism missed a sibling: %v", names)
	}
	res, err := Eval(context.Background(), s, q, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable || len(res.Answer) != 1 {
		t.Fatalf("eval: %+v %s", res, res.Answer.CanonicalString())
	}
}

func TestQStableExact(t *testing.T) {
	const sys = `
doc d0 = r{v{1}}
doc d = top{!f}
func f = out{$x} :- d0/r{v{$x}}
`
	s := core.MustParseSystem(sys)
	// Query whose answer needs f's output: not yet stable.
	needy := syntax.MustParseQuery(`res{$x} :- d/top{out{$x}}`)
	stable, err := QStableExact(s, needy)
	if err != nil {
		t.Fatal(err)
	}
	if stable {
		t.Fatal("system reported stable before invoking f")
	}
	// After running to fixpoint, it is stable.
	s.Run(core.RunOptions{})
	stable, err = QStableExact(s, needy)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("terminated system not stable")
	}
	// A query not touched by any call is stable from the start.
	fresh := core.MustParseSystem(sys)
	indep := syntax.MustParseQuery(`res{$x} :- d0/r{v{$x}}`)
	stable, err = QStableExact(fresh, indep)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("independent query not stable")
	}
}

func TestQUnneededExact(t *testing.T) {
	// Two calls providing overlapping data: freezing one is unneeded
	// when the other provides the same information.
	const sys = `
doc d0 = r{v{1}}
doc d = top{!f,!g}
func f = out{$x} :- d0/r{v{$x}}
func g = out{$x} :- d0/r{v{$x}}
`
	s := core.MustParseSystem(sys)
	q := syntax.MustParseQuery(`res{$x} :- d/top{out{$x}}`)
	var fNode, gNode *tree.Node
	for _, c := range s.Calls() {
		switch c.Node.Name {
		case "f":
			fNode = c.Node
		case "g":
			gNode = c.Node
		}
	}
	un, err := QUnneededExact(s, q, map[*tree.Node]bool{fNode: true})
	if err != nil {
		t.Fatal(err)
	}
	if !un {
		t.Fatal("freezing f should be unneeded (g provides the data)")
	}
	un, err = QUnneededExact(s, q, map[*tree.Node]bool{fNode: true, gNode: true})
	if err != nil {
		t.Fatal(err)
	}
	if un {
		t.Fatal("freezing both calls must be needed — not closed under union, Section 4")
	}
}

func TestExactPreconditions(t *testing.T) {
	nonSimple := core.MustParseSystem("doc d = a{a{b},!g}\nfunc g = a{a{#X}} :- context/a{a{#X}}")
	q := syntax.MustParseQuery(`out :- d/a{b}`)
	if _, err := QStableExact(nonSimple, q); err == nil {
		t.Fatal("non-simple system accepted")
	}
	simple := core.MustParseSystem("doc d = a{!f}\nfunc f = b :- ")
	if _, err := QStableExact(simple, syntax.MustParseQuery(`out{#T} :- d/a{#T}`)); err == nil {
		t.Fatal("non-simple query accepted")
	}
	if _, err := QStableExact(simple, syntax.MustParseQuery(`out{!f} :- d/a{b}`)); err == nil {
		t.Fatal("call-bearing head accepted")
	}
}

func TestEvalBudget(t *testing.T) {
	// Relevant recursive growth hits the budget and reports non-stable.
	s := core.MustParseSystem(`
doc d = a{!f}
func f = b{!f} :-
`)
	q := syntax.MustParseQuery(`out :- d/a{b{b{b{b{b{b{b{b{c}}}}}}}}}`)
	res, err := Eval(context.Background(), s, q, core.RunOptions{MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Fatalf("budgeted run reported stable: %+v", res)
	}
	if res.Steps != 3 {
		t.Fatalf("steps = %d", res.Steps)
	}
}

func TestWeakUnneeded(t *testing.T) {
	s := core.MustParseSystem(portalSystem)
	q := syntax.MustParseQuery(ratingQuery())
	feeds := map[*tree.Node]bool{}
	ratingsCalls := map[*tree.Node]bool{}
	for _, c := range s.Calls() {
		switch c.Node.Name {
		case "VideoFeed":
			feeds[c.Node] = true
		case "GetRating":
			ratingsCalls[c.Node] = true
		}
	}
	un, err := WeakUnneeded(s, q, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !un {
		t.Fatal("video feeds should be weakly unneeded for the rating query")
	}
	un, err = WeakUnneeded(s, q, ratingsCalls)
	if err != nil {
		t.Fatal(err)
	}
	if un {
		t.Fatal("rating calls reported weakly unneeded")
	}
}
