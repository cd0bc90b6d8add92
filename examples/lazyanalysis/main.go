// Lazy-evaluation analysis (Section 4): weak relevance in PTIME, exact
// decisions on the finite graph representation, possible answers, and
// minimal-length rewritings. This example puts every §4 API on one
// scenario.
//
//	go run ./examples/lazyanalysis
package main

import (
	"context"
	"fmt"
	"log"

	"axml"
)

const portal = `
doc ratings = db{entry{title{"Body and Soul"},stars{"4"}}}
doc portal = directory{
  cd{title{"Body and Soul"},!GetRating},
  videos{!VideoFeed}}
func GetRating = rating{$s} :- context/cd{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
func VideoFeed = clip{!VideoFeed} :-
`

func main() {
	sys := axml.MustParseSystem(portal)
	q := axml.MustParseQuery(
		`out{$t,$s} :- portal/directory{cd{title{$t},rating{$s}}}`)

	// 1. Weak (PTIME) relevance: which calls could matter?
	an, err := axml.AnalyzeRelevance(sys, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("weakly relevant calls:")
	for _, c := range an.Relevant {
		fmt.Printf("  !%s under %s in %s\n", c.Node.Name, c.Parent.Name, c.Doc)
	}
	fmt.Println("weakly stable now:", an.WeaklyStable())

	// 2. Exact stability on the graph representation (Theorem 4.1).
	stable, err := axml.QStableExact(sys, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exactly q-stable before any call:", stable)

	// 3. Possible answers: the materialized rating and the intensional
	// call are equivalent answers (the paper's "****" vs GetRating{...}).
	matAnswer := axml.Forest{axml.MustParseDocument(`out{"Body and Soul","4"}`)}
	ok, err := axml.PossibleAnswerExact(sys, q, matAnswer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("materialized forest is a possible answer:", ok)

	// 4. Lazy evaluation: answer without touching the video feed.
	lres, err := axml.LazyEval(context.Background(), sys.Copy(), q, axml.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lazy: stable=%v invocations=%d answer=%s\n",
		lres.Stable, lres.Invocations, lres.Answer)

	// 5. Minimal rewriting: how few invocations until the answer exists?
	steps, trace, found, err := sys.ShortestRun(func(st *axml.System) bool {
		ans, err := st.SnapshotQuery(q)
		return err == nil && len(ans) == 1
	}, axml.ShortestOptions{})
	if err != nil || !found {
		log.Fatalf("shortest run: found=%v err=%v", found, err)
	}
	fmt.Printf("minimal rewriting: %d step(s) via %v\n", steps, trace)
}
