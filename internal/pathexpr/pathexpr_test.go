package pathexpr

import (
	"testing"

	"axml/internal/core"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

func TestParseRegexRoundTrip(t *testing.T) {
	cases := []string{
		`a`,
		`a.b.c`,
		`a|b`,
		`(a|b)*.c`,
		`a+.b?`,
		`_`,
		`(a.b)|(c.d)`,
		`((a|b).c)*`,
	}
	for _, src := range cases {
		r, err := ParseRegex(src)
		if err != nil {
			t.Fatalf("ParseRegex(%q): %v", src, err)
		}
		back, err := ParseRegex(r.String())
		if err != nil {
			t.Fatalf("round trip of %q -> %q: %v", src, r.String(), err)
		}
		if back.String() != r.String() {
			t.Fatalf("unstable round trip: %q -> %q -> %q", src, r.String(), back.String())
		}
	}
}

func TestParseRegexErrors(t *testing.T) {
	for _, src := range []string{``, `(a`, `a||b`, `*`, `a..b`, `a)`, `|a`} {
		if _, err := ParseRegex(src); err == nil {
			t.Errorf("ParseRegex(%q) accepted", src)
		}
	}
}

// accepts runs the NFA over a word.
func accepts(n *NFA, word ...string) bool {
	states := map[int]bool{n.Start: true}
	for _, w := range word {
		states = n.StepSet(states, w)
	}
	return n.AnyFinal(states)
}

func TestNFASemantics(t *testing.T) {
	cases := []struct {
		re  string
		yes [][]string
		no  [][]string
	}{
		{`a`, [][]string{{"a"}}, [][]string{{}, {"b"}, {"a", "a"}}},
		{`a.b`, [][]string{{"a", "b"}}, [][]string{{"a"}, {"b", "a"}}},
		{`a|b`, [][]string{{"a"}, {"b"}}, [][]string{{}, {"c"}}},
		{`a*`, [][]string{{}, {"a"}, {"a", "a", "a"}}, [][]string{{"b"}, {"a", "b"}}},
		{`a+`, [][]string{{"a"}, {"a", "a"}}, [][]string{{}}},
		{`a?`, [][]string{{}, {"a"}}, [][]string{{"a", "a"}}},
		{`(a|b)*.c`, [][]string{{"c"}, {"a", "b", "c"}}, [][]string{{}, {"a"}, {"c", "c"}}},
		{`_.a`, [][]string{{"z", "a"}, {"a", "a"}}, [][]string{{"a"}, {"a", "z"}}},
	}
	for _, c := range cases {
		n := CompileRegex(MustParseRegex(c.re))
		for _, w := range c.yes {
			if !accepts(n, w...) {
				t.Errorf("%s should accept %v\n%s", c.re, w, n)
			}
		}
		for _, w := range c.no {
			if accepts(n, w...) {
				t.Errorf("%s should reject %v", c.re, w)
			}
		}
	}
}

func docsOf(t *testing.T, pairs ...string) query.Docs {
	t.Helper()
	d := query.Docs{}
	for i := 0; i < len(pairs); i += 2 {
		d[pairs[i]] = syntax.MustParseDocument(pairs[i+1])
	}
	return d
}

func TestSnapshotDirectPathMatching(t *testing.T) {
	docs := docsOf(t, "d", `lib{section{title{"top"},sub{section{title{"deep"},cd{title{"x"}}}}},cd{title{"y"}}}`)
	// Titles reachable through any nesting of section/sub.
	q := MustParseRQuery(`out{$t} :- d/lib{<(section|sub)*.title>{$t}}`)
	got, err := Snapshot(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	want := subsume.ReduceForest(tree.Forest{
		syntax.MustParseDocument(`out{"top"}`),
		syntax.MustParseDocument(`out{"deep"}`),
	})
	if got.CanonicalString() != want.CanonicalString() {
		t.Fatalf("got %s want %s", got.CanonicalString(), want.CanonicalString())
	}
	// cd titles at any depth, including under sections.
	q2 := MustParseRQuery(`out{$t} :- d/lib{<_*.cd.title>{$t}}`)
	got2, err := Snapshot(q2, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 {
		t.Fatalf("wildcard query: %s", got2.CanonicalString())
	}
}

func TestSnapshotEmptyWordAnchorsAtParent(t *testing.T) {
	docs := docsOf(t, "d", `a{title{"here"},b{title{"below"}}}`)
	q := MustParseRQuery(`out{$t} :- d/a{<b?.title>{$t}}`)
	got, err := Snapshot(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("optional path: %s", got.CanonicalString())
	}
}

func TestSnapshotPathIgnoresValueAndFuncEdges(t *testing.T) {
	docs := docsOf(t, "d", `a{!svc{b{title{"inparam"}}},b{title{"data"}}}`)
	q := MustParseRQuery(`out{$t} :- d/a{<b.title>{$t}}`)
	got, err := Snapshot(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	// Paths descend through the param subtree? No: the function node is
	// not a label edge, so only the data branch matches.
	if len(got) != 1 || got[0].Children[0].Name != "data" {
		t.Fatalf("got %s", got.CanonicalString())
	}
}

func TestRQueryValidate(t *testing.T) {
	if _, err := ParseRQuery(`out{$x} :- `); err == nil {
		t.Error("unsafe head accepted")
	}
	if _, err := ParseRQuery(`out :- d/a{<b*>{#T}}, #T != #T`); err == nil {
		t.Error("tree inequality accepted")
	}
	if _, err := ParseRQuery(`out{<a>} :- d/a`); err == nil {
		t.Error("path node in head accepted")
	}
	// An inequality over a variable the body never binds: rejected
	// statically, and an error — as in query.Snapshot, not a silently
	// empty answer — when evaluation is reached without validating.
	raw := &RQuery{
		Name:  "raw",
		Head:  pattern.Label("out"),
		Body:  []RAtom{{Doc: "d", Pattern: FromPattern(pattern.Label("a"))}},
		Ineqs: []query.Ineq{{Left: query.Variable("zz"), Right: query.Constant("1")}},
	}
	if err := raw.Validate(); err == nil {
		t.Error("unbound inequality variable accepted")
	}
	if _, err := Snapshot(raw, query.Docs{"d": syntax.MustParseDocument(`a`)}); err == nil {
		t.Error("unbound inequality variable evaluated")
	}
}

func TestRQueryServiceInSystem(t *testing.T) {
	// A positive+reg system: the service finds titles at any depth.
	s := core.NewSystem()
	if err := s.AddDocument(tree.NewDocument("lib", syntax.MustParseDocument(
		`lib{section{sub{cd{title{"x"}}},cd{title{"y"}}}}`))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument(tree.NewDocument("out", syntax.MustParseDocument(`res{!collect}`))); err != nil {
		t.Fatal(err)
	}
	rq := MustParseRQuery(`title{$t} :- lib/lib{<_*.title>{$t}}`)
	rq.Name = "collect"
	svc, err := NewRQueryService(rq)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(svc); err != nil {
		t.Fatal(err)
	}
	res := s.Run(core.RunOptions{})
	if !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	want := syntax.MustParseDocument(`res{!collect,title{"x"},title{"y"}}`)
	if !tree.Isomorphic(s.Document("out").Root, want) {
		t.Fatalf("out = %s", s.Document("out").Root.CanonicalString())
	}
}

// buildLibSystem builds a plain positive system where a service feeds data
// that the positive+reg query then traverses.
func buildLibSystem(t *testing.T) *core.System {
	t.Helper()
	return core.MustParseSystem(`
doc src = store{item{name{"alpha"}},item{name{"beta"}}}
doc lib = lib{section{sub},!fill}
func fill = section{cd{title{$n}}} :- src/store{item{name{$n}}}
`)
}

func TestProposition51TranslationEqualsDirect(t *testing.T) {
	rq := MustParseRQuery(`out{$t} :- lib/lib{<(section|sub)*.cd.title>{$t}}`)

	// Direct: run the original system, evaluate directly.
	direct, directExact, err := EvalFull(buildLibSystem(t), rq, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !directExact {
		t.Fatal("original system did not terminate")
	}

	// Translated: plain system + plain query.
	trans, err := Translate(buildLibSystem(t), rq)
	if err != nil {
		t.Fatal(err)
	}
	if len(trans.TokenServices) == 0 {
		t.Fatal("no token services generated")
	}
	// Prop 5.1(2): simplicity preserved.
	if !trans.System.IsSimple() {
		t.Fatal("translated system not simple")
	}
	if !trans.Query.IsSimple() {
		t.Fatal("translated query not simple")
	}
	res, err := trans.System.EvalQuery(trans.Query, core.RunOptions{MaxSteps: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("translated system did not terminate: %+v", res.Run)
	}
	if direct.CanonicalString() != res.Answer.CanonicalString() {
		t.Fatalf("Prop 5.1(3) violated:\ndirect    %s\ntranslated %s",
			direct.CanonicalString(), res.Answer.CanonicalString())
	}
	want := subsume.ReduceForest(tree.Forest{
		syntax.MustParseDocument(`out{"alpha"}`),
		syntax.MustParseDocument(`out{"beta"}`),
	})
	if direct.CanonicalString() != want.CanonicalString() {
		t.Fatalf("direct answer wrong: %s", direct.CanonicalString())
	}
}

func TestTranslateEmptyWordAndAlternation(t *testing.T) {
	s := core.MustParseSystem(`doc d = a{title{"h"},b{title{"l"}}}`)
	rq := MustParseRQuery(`out{$t} :- d/a{<b?.title>{$t}}`)
	direct, _, err := EvalFull(s, rq, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trans, err := Translate(s, rq)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trans.System.EvalQuery(trans.Query, core.RunOptions{MaxSteps: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("translated system did not terminate")
	}
	if direct.CanonicalString() != res.Answer.CanonicalString() {
		t.Fatalf("empty-word case: direct %s vs translated %s",
			direct.CanonicalString(), res.Answer.CanonicalString())
	}
	if len(direct) != 2 {
		t.Fatalf("direct = %s", direct.CanonicalString())
	}
}

func TestTranslateWildcard(t *testing.T) {
	s := core.MustParseSystem(`doc d = r{x{y{leaf{"1"}}},z{leaf{"2"}}}`)
	rq := MustParseRQuery(`out{$v} :- d/r{<_*.leaf>{$v}}`)
	direct, _, err := EvalFull(s, rq, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trans, err := Translate(s, rq)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trans.System.EvalQuery(trans.Query, core.RunOptions{MaxSteps: 500000})
	if err != nil {
		t.Fatal(err)
	}
	if direct.CanonicalString() != res.Answer.CanonicalString() {
		t.Fatalf("wildcard: direct %s vs translated %s", direct.CanonicalString(), res.Answer.CanonicalString())
	}
	if len(direct) != 2 {
		t.Fatalf("direct = %s", direct.CanonicalString())
	}
}

func TestTranslateRejections(t *testing.T) {
	s := core.MustParseSystem(`doc d = a{b}`)
	if _, err := Translate(s, MustParseRQuery(`out{#T} :- d/a{<b*>{#T}}`)); err == nil {
		t.Error("tree var under path accepted by translation")
	}
	bb := core.NewSystem()
	if err := bb.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{!f}`))); err != nil {
		t.Fatal(err)
	}
	if err := bb.AddService(core.ConstService("f", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(bb, MustParseRQuery(`out :- d/a{<b>}`)); err == nil {
		t.Error("black-box system accepted")
	}
}

func TestRNodeHelpers(t *testing.T) {
	n := MustParseRPattern(`a{<b*.c>{$x},d}`)
	if !n.HasPath() {
		t.Fatal("HasPath false")
	}
	if !n.IsSimple() {
		t.Fatal("IsSimple false")
	}
	round := MustParseRPattern(n.String())
	if round.String() != n.String() {
		t.Fatalf("round trip %q -> %q", n.String(), round.String())
	}
	if _, err := n.ToPattern(); err == nil {
		t.Fatal("ToPattern should fail with path nodes")
	}
	plain := MustParseRPattern(`a{b{$x}}`)
	p, err := plain.ToPattern()
	if err != nil || p.String() != "a{b{$x}}" {
		t.Fatalf("ToPattern: %v %v", p, err)
	}
	fp := FromPattern(p)
	if fp.String() != "a{b{$x}}" {
		t.Fatalf("FromPattern: %s", fp)
	}
}
