package query_test

import (
	"strings"
	"testing"

	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/syntax"
)

func TestQueryStringRendering(t *testing.T) {
	qq := q(t, `out{$x} :- d/r{a{$x},b{%l}}, $x != "5", %l != $x`)
	s := qq.String()
	// Must be re-parseable with correct sigils on inequality variables.
	back, err := syntax.ParseQuery(s)
	if err != nil {
		t.Fatalf("String output %q not parseable: %v", s, err)
	}
	if back.String() != s {
		t.Fatalf("unstable String: %q vs %q", back.String(), s)
	}
	if !strings.Contains(s, `$x != "5"`) || !strings.Contains(s, `%l != $x`) {
		t.Fatalf("sigils lost: %q", s)
	}
}

func TestAtomTermIneqString(t *testing.T) {
	a := query.Atom{Doc: "d", Pattern: mustPat(t, `r{$x}`)}
	if a.String() != "d/r{$x}" {
		t.Fatalf("Atom.String = %q", a.String())
	}
	if query.Variable("x").String() != "x" {
		t.Fatal("variable term string")
	}
	if query.Constant("v").String() != `"v"` {
		t.Fatal("constant term string")
	}
	e := query.Ineq{Left: query.Variable("x"), Right: query.Constant("v")}
	if e.String() != `x != "v"` {
		t.Fatalf("Ineq.String = %q", e.String())
	}
}

func TestBodyAssignmentsDirect(t *testing.T) {
	d := docs(t, "d", `r{a{1},a{2}}`)
	qq := q(t, `out{$x} :- d/r{a{$x}}`)
	as, err := query.BodyAssignmentsSince(qq, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 {
		t.Fatalf("assignments = %d", len(as))
	}
	for _, a := range as {
		if a["x"].Tree != nil || a["x"].Atom == "" {
			t.Fatalf("binding = %+v", a["x"])
		}
	}
	// With a baseline the rows are the delta rows: the tuple appended
	// after it, not the old one.
	d["d"].Children[1].StampAll(2)
	as, err = query.BodyAssignmentsSince(qq, d, map[string]uint64{"d": 1}, nil)
	if err != nil || len(as) != 1 || as[0]["x"].Atom != "2" {
		t.Fatalf("delta rows %v, %v; want x=2 only", as, err)
	}
}

func TestValidateMoreBranches(t *testing.T) {
	// Inequality with unbound variable, built programmatically.
	bad := &query.Query{
		Name: "b1",
		Head: mustPat(t, `a`),
		Body: []query.Atom{{Doc: "d", Pattern: mustPat(t, `r{$x}`)}},
		Ineqs: []query.Ineq{{
			Left:  query.Variable("nope"),
			Right: query.Constant("1"),
		}},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("unbound inequality variable accepted")
	}
	// Tree variable in inequality.
	bad2 := &query.Query{
		Name:  "b2",
		Head:  mustPat(t, `a`),
		Body:  []query.Atom{{Doc: "d", Pattern: mustPat(t, `r{#T}`)}},
		Ineqs: []query.Ineq{{Left: query.Variable("T"), Right: query.Constant("1")}},
	}
	if err := bad2.Validate(); err == nil {
		t.Fatal("tree inequality accepted")
	}
	// Head/body kind mismatch built directly.
	bad3 := &query.Query{
		Name: "b3",
		Head: &pattern.Node{Kind: pattern.VarLabel, Name: "x"},
		Body: []query.Atom{{Doc: "d", Pattern: mustPat(t, `r{$x}`)}},
	}
	if err := bad3.Validate(); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	// Value-var head with children (invalid pattern shape).
	bad4 := &query.Query{
		Name: "b4",
		Head: &pattern.Node{Kind: pattern.VarValue, Name: "x",
			Children: []*pattern.Node{mustPat(t, `a`)}},
		Body: []query.Atom{{Doc: "d", Pattern: mustPat(t, `r{$x}`)}},
	}
	if err := bad4.Validate(); err == nil {
		t.Fatal("value-var head with children accepted")
	}
}

func TestSnapshotIneqErrors(t *testing.T) {
	// An inequality referencing a tree-bound variable fails at eval time
	// when validation is bypassed.
	d := docs(t, "d", `r{a{1}}`)
	qq := &query.Query{
		Name:  "raw",
		Head:  mustPat(t, `out`),
		Body:  []query.Atom{{Doc: "d", Pattern: mustPat(t, `r{#T}`)}},
		Ineqs: []query.Ineq{{Left: query.Variable("T"), Right: query.Constant("x")}},
	}
	if _, err := query.Snapshot(qq, d); err == nil {
		t.Fatal("tree-bound inequality evaluated")
	}
	// Unbound inequality variable at eval time.
	qq2 := &query.Query{
		Name:  "raw2",
		Head:  mustPat(t, `out`),
		Body:  []query.Atom{{Doc: "d", Pattern: mustPat(t, `r{a{$x}}`)}},
		Ineqs: []query.Ineq{{Left: query.Variable("zz"), Right: query.Constant("x")}},
	}
	if _, err := query.Snapshot(qq2, d); err == nil {
		t.Fatal("unbound inequality variable evaluated")
	}
}

func TestSnapshotHeadInstantiationError(t *testing.T) {
	// Head uses a variable the body binds as a tree: Instantiate must
	// fail for scalar head kinds (validation bypassed on purpose).
	d := docs(t, "d", `r{a{b}}`)
	qq := &query.Query{
		Name: "raw3",
		Head: &pattern.Node{Kind: pattern.VarValue, Name: "T"},
		Body: []query.Atom{{Doc: "d", Pattern: mustPat(t, `r{#T}`)}},
	}
	if _, err := query.Snapshot(qq, d); err == nil {
		t.Fatal("tree-to-scalar head instantiation succeeded")
	}
}
