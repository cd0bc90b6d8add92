// Streams and infinite documents: subscriptions that keep sending data
// give documents with infinite semantics (Examples 2.1 and 3.3). This
// example shows what the library offers when full materialization is
// impossible: bounded runs, the finite regular-graph representation and
// exact termination decision for simple systems (Lemma 3.2, Theorem 3.3),
// and lazy evaluation that answers a query without touching the infinite
// branch (Section 4).
//
//	go run ./examples/streams
package main

import (
	"context"
	"fmt"
	"log"

	"axml"
)

func main() {
	// A news portal: a static headline section plus a feed subscription
	// that keeps nesting more items forever (Example 2.1's shape).
	sys := axml.MustParseSystem(`
doc portal = portal{
  headlines{item{"AXML at PODS"},item{"XML wins"}},
  feed{!More}}
func More = batch{!More} :-
`)

	// 1. The system does not terminate — and for this simple positive
	// system we can DECIDE that, not just time out (Theorem 3.3).
	verdict, graph, err := axml.DecideTermination(sys, axml.RegularBuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("termination decision: terminates=%v (graph: %d vertices, cyclic=%v)\n",
		verdict, graph.VertexCount(), graph.HasCycle())

	// 2. The infinite semantics has a finite representation: unfold it
	// to any depth you like.
	fmt.Println("\nsemantics unfolded to depth 6:")
	fmt.Print(graph.Roots["portal"].Unfold(6).Indent())

	// 3. A headline query needs none of the feed: lazy evaluation
	// answers it with zero invocations and proves stability.
	q := axml.MustParseQuery(`head{$t} :- portal/portal{headlines{item{$t}}}`)
	lres, err := axml.LazyEval(context.Background(), sys, q, axml.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlazy evaluation: stable=%v invocations=%d answers=%s\n",
		lres.Stable, lres.Invocations, lres.Answer)

	// 4. A bounded run still lets you stream: each step appends one
	// batch; the document grows monotonically (Theorem 2.1 guarantees
	// the limit is scheduler-independent).
	stream := sys.Copy()
	for i := 1; i <= 3; i++ {
		stream.Run(axml.RunOptions{MaxSteps: 1})
		fmt.Printf("\nafter %d feed batch(es): %d nodes\n", i, stream.Size())
	}
}
