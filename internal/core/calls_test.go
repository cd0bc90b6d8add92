package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"axml/internal/tree"
)

// linkPerNodeCalls is the walk Calls replaced: it links every node it
// visits, leaves included. It is the reference Calls must agree with.
func linkPerNodeCalls(s *System) []Call {
	var out []Call
	for _, name := range s.docNames {
		var rec func(n *tree.Node, up *pathLink)
		rec = func(n *tree.Node, up *pathLink) {
			if n.Kind == tree.Func {
				out = append(out, Call{Doc: name, Node: n, Parent: up.node, path: up})
			}
			link := &pathLink{node: n, up: up}
			for _, c := range n.Children {
				rec(c, link)
			}
		}
		root := s.docs[name].Root
		for _, c := range root.Children {
			rec(c, &pathLink{node: root})
		}
	}
	return out
}

// randCallTree is a random tree whose calls sit at any depth, nested in
// other calls' parameters too.
func randCallTree(rng *rand.Rand, depth int) *tree.Node {
	switch k := rng.Intn(5); {
	case depth == 0 || k == 0:
		return tree.NewValue(fmt.Sprint("v", rng.Intn(4)))
	case k == 1:
		n := &tree.Node{Kind: tree.Func, Name: fmt.Sprint("f", rng.Intn(3))}
		for i := rng.Intn(3); i > 0; i-- {
			n.Children = append(n.Children, randCallTree(rng, depth-1))
		}
		return n
	default:
		n := tree.NewLabel(fmt.Sprint("l", rng.Intn(3)))
		for i := rng.Intn(4); i > 0; i-- {
			n.Children = append(n.Children, randCallTree(rng, depth-1))
		}
		return n
	}
}

// Calls finds the calls the link-per-node walk finds, in its order, with
// the same parent and ancestor chain: calls in a sibling subtree never
// see the links of the one before.
func TestCallsMatchesLinkPerNodeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	total := 0
	for i := 0; i < 400; i++ {
		s := NewSystem()
		for d := 0; d < 1+rng.Intn(3); d++ {
			root := tree.NewLabel("r")
			for c := rng.Intn(5); c > 0; c-- {
				root.Children = append(root.Children, randCallTree(rng, 5))
			}
			if err := s.AddDocument(tree.NewDocument(fmt.Sprint("d", d), root)); err != nil {
				t.Fatal(err)
			}
		}
		got, want := s.Calls(), linkPerNodeCalls(s)
		if len(got) != len(want) {
			t.Fatalf("system %d: %d calls, want %d", i, len(got), len(want))
		}
		for j := range got {
			g, w := got[j], want[j]
			if g.Doc != w.Doc || g.Node != w.Node || g.Parent != w.Parent || !slices.Equal(g.Ancestors(), w.Ancestors()) {
				t.Fatalf("system %d, call %d: %s under %s (%d ancestors), want %s under %s (%d)", i, j,
					g.Node.Name, g.Parent.Name, len(g.Ancestors()), w.Node.Name, w.Parent.Name, len(w.Ancestors()))
			}
		}
		total += len(got)
	}
	if total < 1000 {
		t.Fatalf("only %d calls across the systems", total)
	}
}

// A wide document with few calls costs Calls a handful of allocations,
// not one per node.
func TestCallsAllocatesPerCallNotPerNode(t *testing.T) {
	root := tree.NewLabel("store")
	for i := 0; i < 2000; i++ {
		root.Children = append(root.Children, tree.NewLabel("item",
			tree.NewLabel("id", tree.NewValue(fmt.Sprint(i))), tree.NewLabel("val", tree.NewValue("x"))))
	}
	for i := 0; i < 4; i++ {
		root.Children = append(root.Children, tree.NewLabel("slot",
			tree.NewLabel("n", tree.NewValue(fmt.Sprint(i))), &tree.Node{Kind: tree.Func, Name: "Lookup"}))
	}
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d", root)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Calls()); n != 4 {
		t.Fatalf("%d calls, want 4", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Calls() }); allocs > 24 {
		t.Fatalf("Calls over %d nodes with 4 calls: %v allocations", s.Size(), allocs)
	}
}
