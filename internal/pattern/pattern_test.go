package pattern_test

import (
	"testing"

	"axml/internal/pattern"
	"axml/internal/syntax"
	"axml/internal/tree"
)

func doc(t *testing.T, s string) *tree.Node {
	t.Helper()
	n, err := syntax.ParseDocument(s)
	if err != nil {
		t.Fatalf("doc %q: %v", s, err)
	}
	return n
}

func pat(t *testing.T, s string) *pattern.Node {
	t.Helper()
	p, err := syntax.ParsePattern(s)
	if err != nil {
		t.Fatalf("pattern %q: %v", s, err)
	}
	return p
}

func TestMatchConstants(t *testing.T) {
	d := doc(t, `a{b{c},d}`)
	if got := pattern.Match(pat(t, `a{b}`), d); len(got) != 1 {
		t.Fatalf("constant match: %d assignments", len(got))
	}
	if got := pattern.Match(pat(t, `a{b{c},d}`), d); len(got) != 1 {
		t.Fatalf("full constant match: %d", len(got))
	}
	if got := pattern.Match(pat(t, `a{e}`), d); got != nil {
		t.Fatalf("should not match: %v", got)
	}
	// Root must map to root.
	if got := pattern.Match(pat(t, `b{c}`), d); got != nil {
		t.Fatalf("non-root match accepted: %v", got)
	}
}

func TestMatchHomomorphismMayMergeSiblings(t *testing.T) {
	// Two pattern children may map onto the same document child.
	d := doc(t, `a{b{c,d}}`)
	if got := pattern.Match(pat(t, `a{b{c},b{d}}`), d); len(got) != 1 {
		t.Fatalf("merging homomorphism rejected: %d", len(got))
	}
}

func TestMatchValueVariable(t *testing.T) {
	d := doc(t, `r{t{a{1},b{2}},t{a{2},b{3}}}`)
	got := pattern.Match(pat(t, `r{t{a{$x},b{$y}}}`), d)
	if len(got) != 2 {
		t.Fatalf("assignments = %d, want 2", len(got))
	}
	seen := map[string]bool{}
	for _, a := range got {
		seen[a["x"].Atom+"-"+a["y"].Atom] = true
	}
	if !seen["1-2"] || !seen["2-3"] {
		t.Fatalf("bindings = %v", seen)
	}
}

func TestMatchJoinVariable(t *testing.T) {
	d := doc(t, `r{t{a{1},b{2}},t{a{2},b{3}},t{a{5},b{6}}}`)
	// Join within one pattern: pairs t(x,z), t(z,y).
	got := pattern.Match(pat(t, `r{t{a{$x},b{$z}},t{a{$z},b{$y}}}`), d)
	if len(got) != 1 {
		t.Fatalf("join results = %d, want 1", len(got))
	}
	a := got[0]
	if a["x"].Atom != "1" || a["z"].Atom != "2" || a["y"].Atom != "3" {
		t.Fatalf("join binding = %v", a)
	}
}

func TestMatchLabelAndFuncVariables(t *testing.T) {
	d := doc(t, `r{t{a{1},b{2},k{6}},!GetRating{"x"}}`)
	labels := pattern.Match(pat(t, `r{t{%l}}`), d)
	if len(labels) != 3 {
		t.Fatalf("label var matches = %d, want 3", len(labels))
	}
	funcs := pattern.Match(pat(t, `r{^f}`), d)
	if len(funcs) != 1 || funcs[0]["f"].Atom != "GetRating" {
		t.Fatalf("func var matches = %v", funcs)
	}
	// Label variables must not match values or function nodes.
	if got := pattern.Match(pat(t, `r{t{a{%v}}}`), d); got != nil {
		t.Fatalf("label var matched a value: %v", got)
	}
}

func TestMatchTreeVariablePaperExample31(t *testing.T) {
	// Example 3.1: z :- d'/a{x}, d/r{t{a{x},b{z}}} with label variable z
	// gives {c,d,e}; with tree variable Z gives the subtree forest.
	d := doc(t, `r{t{a{1},b{c{2},d{3}}},t{a{1},b{c{3},e{3}}},t{a{2},b{c{2},k{6}}}}`)
	dp := doc(t, `a{1}`)

	// Simulate the two-atom body by matching d' first.
	asns := pattern.Match(pat(t, `a{$x}`), dp)
	if len(asns) != 1 {
		t.Fatalf("d' match = %d", len(asns))
	}
	labelRes := pattern.MatchExtending(pat(t, `r{t{a{$x},b{%z}}}`), d, asns[0])
	zs := map[string]bool{}
	for _, a := range labelRes {
		zs[a["z"].Atom] = true
	}
	if len(zs) != 3 || !zs["c"] || !zs["d"] || !zs["e"] {
		t.Fatalf("label-variable result = %v, want {c,d,e}", zs)
	}

	treeRes := pattern.MatchExtending(pat(t, `r{t{a{$x},b{#Z}}}`), d, asns[0])
	trees := map[string]bool{}
	for _, a := range treeRes {
		trees[a["Z"].Tree.CanonicalString()] = true
	}
	want := []string{`c{"2"}`, `d{"3"}`, `c{"3"}`, `e{"3"}`}
	if len(trees) != 4 {
		t.Fatalf("tree-variable results = %v", trees)
	}
	for _, w := range want {
		if !trees[w] {
			t.Fatalf("missing %s in %v", w, trees)
		}
	}
}

func TestMatchDeduplicates(t *testing.T) {
	d := doc(t, `a{b{c},b{c}}`)
	got := pattern.Match(pat(t, `a{b{%x}}`), d)
	if len(got) != 1 {
		t.Fatalf("duplicate assignments not deduplicated: %d", len(got))
	}
}

func TestMatchUnderConsistency(t *testing.T) {
	d := doc(t, `r{a{1},a{2}}`)
	base := pattern.Assignment{"x": pattern.Binding{Atom: "2"}}
	got := pattern.MatchExtending(pat(t, `r{a{$x}}`), d, base)
	if len(got) != 1 || got[0]["x"].Atom != "2" {
		t.Fatalf("MatchExtending ignored base binding: %v", got)
	}
	if base["x"].Atom != "2" || len(base) != 1 {
		t.Fatal("MatchExtending modified the base assignment")
	}
}

func TestInstantiate(t *testing.T) {
	asn := pattern.Assignment{
		"x": {Atom: "1"},
		"l": {Atom: "lab"},
		"f": {Atom: "Svc"},
		"T": {Tree: doc(t, `sub{"v"}`)},
	}
	head := pat(t, `out{$x,%l{c},^f,#T}`)
	got, err := pattern.InstantiateAssignment(head, asn)
	if err != nil {
		t.Fatal(err)
	}
	want := doc(t, `out{"1",lab{c},!Svc,sub{"v"}}`)
	if !tree.Isomorphic(got, want) {
		t.Fatalf("Instantiate = %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
	// Tree binding must be copied, not aliased.
	got.Walk(func(n, _ *tree.Node) bool {
		if n.Name == "sub" {
			n.Name = "mutated"
		}
		return true
	})
	if asn["T"].Tree.Name == "mutated" {
		t.Fatal("Instantiate aliased the tree binding")
	}
}

func TestInstantiateUnbound(t *testing.T) {
	if _, err := pattern.InstantiateAssignment(pat(t, `a{$x}`), pattern.Assignment{}); err == nil {
		t.Fatal("unbound value variable accepted")
	}
	if _, err := pattern.InstantiateAssignment(pat(t, `a{#T}`), pattern.Assignment{}); err == nil {
		t.Fatal("unbound tree variable accepted")
	}
	if _, err := pattern.InstantiateAssignment(nil, pattern.Assignment{}); err == nil {
		t.Fatal("nil head accepted")
	}
}

func TestFromTree(t *testing.T) {
	d := doc(t, `a{"v",!f{x}}`)
	p := pattern.FromTree(d)
	got := pattern.Match(p, d)
	if len(got) != 1 {
		t.Fatalf("FromTree pattern should match its source: %v", got)
	}
	if p.CountTreeVars() != 0 || !p.IsSimple() {
		t.Fatal("FromTree produced variables")
	}
}

func TestVarsKindConflict(t *testing.T) {
	p := &pattern.Node{Kind: pattern.ConstLabel, Name: "a", Children: []*pattern.Node{
		pattern.VVar("x"), pattern.LVar("x"),
	}}
	if err := p.Vars(map[string]pattern.Kind{}); err == nil {
		t.Fatal("kind conflict not detected")
	}
}

func TestPatternStringRoundTrip(t *testing.T) {
	src := `out{$x,%l{c},^f,#T,"lit",!G{$x}}`
	p := pat(t, src)
	back := pat(t, p.String())
	if back.String() != p.String() {
		t.Fatalf("round trip: %q -> %q", p.String(), back.String())
	}
}

func TestPatternCopyAndSize(t *testing.T) {
	p := pat(t, `a{b{$x},#T}`)
	c := p.Copy()
	c.Children[0].Name = "zzz"
	if p.Children[0].Name == "zzz" {
		t.Fatal("Copy shares nodes")
	}
	if p.Size() != 4 {
		t.Fatalf("Size = %d", p.Size())
	}
	if p.IsSimple() {
		t.Fatal("pattern with tree var reported simple")
	}
}
