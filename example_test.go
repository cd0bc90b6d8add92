package axml_test

import (
	"context"
	"fmt"

	"axml"
)

// The jazz directory of Section 2.1: a positive service materializes a
// rating from the call's context.
func Example() {
	sys := axml.MustParseSystem(`
doc ratings   = db{entry{title{"Body and Soul"},stars{"****"}}}
doc directory = directory{cd{title{"Body and Soul"},!GetRating}}
func GetRating = rating{$s} :- context/cd{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
`)
	res := sys.Run(axml.RunOptions{})
	fmt.Println("terminated:", res.Terminated)
	fmt.Println(sys.Document("directory").Root.CanonicalString())
	// Output:
	// terminated: true
	// directory{cd{!GetRating,rating{"****"},title{"Body and Soul"}}}
}

// Reduction removes subtrees subsumed by a sibling (Section 2.1's
// example).
func ExampleReduce() {
	d := axml.MustParseDocument(`a{b{c,c},b{c,d,d}}`)
	fmt.Println(axml.Reduce(d).CanonicalString())
	// Output:
	// a{b{c,d}}
}

// Snapshot evaluation never invokes calls; full evaluation does.
func ExampleSystem_EvalQuery() {
	sys := axml.MustParseSystem(`
doc  d0 = r{t{a{1},b{2}},t{a{2},b{3}}}
doc  d1 = r{!g,!f}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`)
	q := axml.MustParseQuery(`pair{$x,$y} :- d1/r{t{a{$x},b{$y}}}`)
	snap, _ := sys.SnapshotQuery(q)
	full, _ := sys.EvalQuery(q, axml.RunOptions{})
	fmt.Println("snapshot answers:", len(snap))
	fmt.Println("full answers:", len(full.Answer), "exact:", full.Exact)
	// Output:
	// snapshot answers: 0
	// full answers: 3 exact: true
}

// Termination is decidable for simple positive systems (Theorem 3.3),
// even when the semantics is an infinite document.
func ExampleDecideTermination() {
	loop := axml.MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
	verdict, graph, _ := axml.DecideTermination(loop, axml.RegularBuildOptions{})
	fmt.Println("terminates:", verdict)
	fmt.Println("finite representation vertices:", graph.VertexCount())
	// Output:
	// terminates: false
	// finite representation vertices: 4
}

// Regular path expressions traverse arbitrary nesting (Section 5).
func ExampleSnapshotR() {
	docs := axml.Docs{"lib": axml.MustParseDocument(
		`lib{section{sub{cd{title{"Naima"}}},cd{title{"Giant Steps"}}}}`)}
	rq := axml.MustParseRQuery(`out{$t} :- lib/lib{<(section|sub)*.cd.title>{$t}}`)
	ans, _ := axml.SnapshotR(rq, docs)
	fmt.Println(ans.CanonicalString())
	// Output:
	// out{"Giant Steps"};out{"Naima"}
}

// Lazy evaluation answers without expanding irrelevant infinite branches
// (Section 4).
func ExampleLazyEval() {
	sys := axml.MustParseSystem(`
doc portal = p{data{v{"42"}},noise{!Feed}}
func Feed = n{!Feed} :-
`)
	q := axml.MustParseQuery(`out{$x} :- portal/p{data{v{$x}}}`)
	res, _ := axml.LazyEval(context.Background(), sys, q, axml.RunOptions{})
	fmt.Println("stable:", res.Stable, "invocations:", res.Invocations)
	fmt.Println(res.Answer.CanonicalString())
	// Output:
	// stable: true invocations: 0
	// out{"42"}
}
