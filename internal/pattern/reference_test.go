package pattern

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"axml/internal/tree"
)

// refMatch is matching by its definition, sharing no code with the
// matcher: it enumerates every map h of the pattern's nodes (in preorder)
// to document nodes with the root on d and every other node on a child of
// its parent's image, respecting markings and binding each variable
// consistently with base and with its other occurrences. Atom bindings
// compare names, tree bindings canonical strings. A homomorphism is fresh
// when it puts a node on one stamped after since (a tree variable: any
// node of the subtree). The result maps each assignment's legacyKey to
// whether some homomorphism yielding it is fresh.
func refMatch(p *Node, d *tree.Node, base Assignment, since uint64) map[string]bool {
	var nodes []*Node
	var parent []int
	var flatten func(n *Node, par int)
	flatten = func(n *Node, par int) {
		i := len(nodes)
		nodes, parent = append(nodes, n), append(parent, par)
		for _, c := range n.Children {
			flatten(c, i)
		}
	}
	flatten(p, -1)
	img := make([]*tree.Node, len(nodes))
	out := map[string]bool{}
	var enumerate func(i int, asn Assignment, fresh bool)
	enumerate = func(i int, asn Assignment, fresh bool) {
		if i == len(nodes) {
			k := legacyKey(asn)
			out[k] = out[k] || fresh
			return
		}
		cands := []*tree.Node{d}
		if i > 0 {
			cands = img[parent[i]].Children
		}
		for _, c := range cands {
			if next, ok := refBind(nodes[i], c, asn); ok {
				img[i] = c
				enumerate(i+1, next, fresh || refFresh(nodes[i], c, since))
			}
		}
	}
	enumerate(0, base, false)
	return out
}

// refBind places pattern node n on document node c under asn.
func refBind(n *Node, c *tree.Node, asn Assignment) (Assignment, bool) {
	var want tree.Kind
	switch n.Kind {
	case ConstLabel, VarLabel:
		want = tree.Label
	case ConstValue, VarValue:
		want = tree.Value
	case ConstFunc, VarFunc:
		want = tree.Func
	}
	switch n.Kind {
	case ConstLabel, ConstValue, ConstFunc:
		return asn, c.Kind == want && c.Name == n.Name
	case VarTree:
		if b, ok := asn[n.Name]; ok {
			return asn, b.Tree != nil && b.Tree.CanonicalString() == c.CanonicalString()
		}
		return refWith(asn, n.Name, Binding{Tree: c}), true
	}
	if c.Kind != want {
		return asn, false
	}
	if b, ok := asn[n.Name]; ok {
		return asn, b.Tree == nil && b.Atom == c.Name
	}
	return refWith(asn, n.Name, Binding{Atom: c.Name}), true
}

func refWith(asn Assignment, name string, b Binding) Assignment {
	out := Assignment{name: b}
	for k, v := range asn {
		out[k] = v
	}
	return out
}

// refFresh reports whether placing n on c touches a node stamped after
// since.
func refFresh(n *Node, c *tree.Node, since uint64) bool {
	if n.Kind != VarTree {
		return c.Stamp > since
	}
	fresh := false
	var walk func(x *tree.Node)
	walk = func(x *tree.Node) {
		fresh = fresh || x.Stamp > since
		for _, k := range x.Children {
			walk(k)
		}
	}
	walk(c)
	return fresh
}

// TestMatchAgreesWithDefinition diffs MatchRows, walking and
// indexed, against refMatch on random unreduced documents (so isomorphic
// siblings occur) with random stamps, random patterns over all four
// variable kinds — atom variables drawn from pools small enough to repeat,
// and tree variables — from empty or bound bases (an atom variable bound
// to a document value, a tree variable bound to a copy of a document
// subtree, an unrelated variable), at no baseline and a mid-version one.
func TestMatchAgreesWithDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	labels, values := []string{"a", "b", "c"}, []string{"u", "v"}
	var randTree func(depth int) *tree.Node
	randTree = func(depth int) *tree.Node {
		switch r := rng.Intn(6); {
		case depth == 0 || r == 0:
			return tree.NewValue(values[rng.Intn(len(values))])
		case r == 1:
			return tree.NewFunc("f")
		}
		n := tree.NewLabel(labels[rng.Intn(len(labels))])
		for i := 0; i < 1+rng.Intn(3); i++ {
			n.Add(randTree(depth - 1))
		}
		return n
	}
	// randPattern draws a pattern from one random embedding into d, each
	// node kept as its constant or turned into a variable of its kind, so
	// most patterns match somewhere.
	var randPattern func(d *tree.Node, depth int) *Node
	randPattern = func(d *tree.Node, depth int) *Node {
		r := rng.Intn(8)
		if r == 0 {
			return TVar(fmt.Sprint("T", rng.Intn(2)))
		}
		var n *Node
		switch {
		case r > 2:
			n = FromTree(&tree.Node{Kind: d.Kind, Name: d.Name})
		case d.Kind == tree.Value:
			return VVar(fmt.Sprint("v", rng.Intn(2)))
		case d.Kind == tree.Func:
			n = FVar("g")
		default:
			n = LVar(fmt.Sprint("l", rng.Intn(2)))
		}
		for i := 0; depth > 0 && len(d.Children) > 0 && i < 1+rng.Intn(2); i++ {
			n.Children = append(n.Children, randPattern(d.Children[rng.Intn(len(d.Children))], depth-1))
		}
		return n
	}
	pick := func(doc *tree.Node) *tree.Node {
		var all []*tree.Node
		doc.Walk(func(n, _ *tree.Node) bool { all = append(all, n); return true })
		return all[rng.Intn(len(all))]
	}
	matched, fresh := 0, 0
	for trial := 0; trial < 300; trial++ {
		doc := tree.NewLabel("root")
		for i := 0; i < 2+rng.Intn(3); i++ {
			doc.Add(randTree(3))
		}
		doc.Walk(func(n, _ *tree.Node) bool { n.Stamp = uint64(rng.Intn(6)); return true })
		p := Label("root")
		for i := 0; i < 1+rng.Intn(3); i++ {
			p.Children = append(p.Children, randPattern(doc.Children[rng.Intn(len(doc.Children))], 2))
		}
		bases := []Assignment{nil, {"zz": {Atom: "kept"}}}
		if n := pick(doc); n.Kind == tree.Value {
			bases = append(bases, Assignment{"v0": {Atom: n.Name}})
		}
		bases = append(bases, Assignment{"T0": {Tree: pick(doc).Copy()}, "v1": {Atom: values[rng.Intn(len(values))]}})
		ix := NewIndex(doc)
		for _, base := range bases {
			for _, since := range []uint64{math.MaxUint64, doc.MaxStamp() / 2} {
				want := refMatch(p, doc, base, since)
				for _, f := range want {
					matched++
					if f {
						fresh++
					}
				}
				for plan, m := range map[string]*Index{"walk": nil, "indexed": ix} {
					what := fmt.Sprintf("trial %d, %s over %s, base %v, since %d, %s", trial, p, doc, base, since, plan)
					got := map[string]bool{}
					for _, st := range matchUnderSince(m, p, doc, base, since) {
						k := legacyKey(st.Asn)
						if _, dup := got[k]; dup {
							t.Fatalf("%s: %s returned twice", what, k)
						}
						got[k] = st.New
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d assignments, want %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
					}
					for k, fresh := range want {
						if g, ok := got[k]; !ok || g != fresh {
							t.Fatalf("%s: %s got (new=%v, present=%v), want new=%v", what, k, g, ok, fresh)
						}
					}
				}
			}
		}
	}
	if matched < 1000 || fresh < 100 {
		t.Fatalf("only %d assignments (%d new) compared: the random patterns hardly match", matched, fresh)
	}
	t.Logf("%d assignments compared, %d of them new", matched, fresh)
}
