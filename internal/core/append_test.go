package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"axml/internal/pattern"
	"axml/internal/subsume"
	"axml/internal/subsume/oracle"
	"axml/internal/tree"
)

// The generators of pattern's TestIndexedMatchRandomized (documents and
// patterns over labels a–d and values u–w under a "root" label), on a
// caller's source.
var (
	appendLabels = []string{"a", "b", "c", "d"}
	appendValues = []string{"u", "v", "w"}
)

func appendRandSubtree(rng *rand.Rand, d int) *tree.Node {
	if d == 0 || rng.Intn(4) == 0 {
		return tree.NewValue(appendValues[rng.Intn(len(appendValues))])
	}
	n := tree.NewLabel(appendLabels[rng.Intn(len(appendLabels))])
	for i := 0; i < 1+rng.Intn(3); i++ {
		n.Add(appendRandSubtree(rng, d-1))
	}
	return n
}

func appendRandDoc(rng *rand.Rand, depth int) *tree.Node {
	root := tree.NewLabel("root")
	for i := 0; i < 3+rng.Intn(3); i++ {
		root.Add(appendRandSubtree(rng, depth))
	}
	return root
}

func appendRandPattern(rng *rand.Rand, depth int) *pattern.Node {
	var build func(d int) *pattern.Node
	build = func(d int) *pattern.Node {
		var n *pattern.Node
		switch {
		case d == 0 || rng.Intn(4) == 0:
			switch rng.Intn(3) {
			case 0:
				return pattern.Value(appendValues[rng.Intn(len(appendValues))])
			case 1:
				return pattern.VVar(fmt.Sprintf("v%d", rng.Intn(3)))
			default:
				return pattern.TVar(fmt.Sprintf("t%d", rng.Intn(2)))
			}
		case rng.Intn(3) == 0:
			n = pattern.LVar(fmt.Sprintf("l%d", rng.Intn(3)))
		default:
			n = pattern.Label(appendLabels[rng.Intn(len(appendLabels))])
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			n.Children = append(n.Children, build(d-1))
		}
		return n
	}
	root := pattern.Label("root")
	for i := 0; i < 1+rng.Intn(2); i++ {
		root.Children = append(root.Children, build(depth))
	}
	return root
}

// overlapping draws a forest that partly repeats, partly is dominated by
// and partly dominates the children of n, plus new trees.
func overlapping(rng *rand.Rand, n *tree.Node) tree.Forest {
	var f tree.Forest
	for _, c := range n.Children {
		switch rng.Intn(4) {
		case 0:
			f = append(f, c.Copy())
		case 1:
			d := c.Copy()
			if len(d.Children) > 1 {
				d.Children = d.Children[1:]
				tree.InvalidateDigestAll(d)
			}
			f = append(f, d)
		case 2:
			if c.Kind != tree.Value {
				f = append(f, c.Copy().Add(appendRandSubtree(rng, 2)))
			}
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		f = append(f, appendRandSubtree(rng, 3))
	}
	return f
}

// stampedKeys is every assignment of p on root through ix, with its
// freshness flag at baseline since, sorted.
func stampedKeys(ix *pattern.Index, p *pattern.Node, root *tree.Node, since uint64) []string {
	var v pattern.Vars
	c := v.Compile(p)
	var keys []string
	for _, r := range ix.MatchRows(c, root, pattern.NewSlab(&v).Row(), since) {
		keys = append(keys, fmt.Sprintf("%x new=%v", r.AppendKey(nil, c.Slots()), r.New))
	}
	sort.Strings(keys)
	return keys
}

func oneDocSystem(t *testing.T, root *tree.Node) *System {
	t.Helper()
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d", root)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPropertyAppendRestoreUnionAgree: at the root, Append of a tree's
// children, Restore of the tree and the definitional union are one
// operation; the version moves iff the document grew, and only the trees
// it gained carry the new stamp.
func TestPropertyAppendRestoreUnionAgree(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := subsume.Reduce(appendRandDoc(rng, 3))
		incoming := tree.NewLabel("root", overlapping(rng, doc)...)
		want := oracle.Union(doc, incoming)

		sa, sr := oneDocSystem(t, doc.Copy()), oneDocSystem(t, doc.Copy())
		root := sa.Document("d").Root
		old := map[*tree.Node]bool{}
		root.Walk(func(n, _ *tree.Node) bool { old[n] = true; return true })

		grewA, err := sa.Append("d", root, incoming.Children)
		if err != nil {
			t.Fatal(err)
		}
		grewR, err := sr.Restore("d", incoming)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*tree.Node{"Append": root, "Restore": sr.Document("d").Root} {
			if got.Digest() != want.CanonicalHash() || !oracle.Equivalent(got, want) {
				t.Fatalf("seed %d: %s\n%s\nwant the union\n%s", seed, name, got.CanonicalString(), want.CanonicalString())
			}
		}
		grew := want.CanonicalHash() != doc.CanonicalHash()
		if grewA != grew || grewR != grew {
			t.Fatalf("seed %d: grew=%v, Append says %v, Restore %v", seed, grew, grewA, grewR)
		}
		v := sa.docVersion["d"]
		if (v == 1) != grew || sr.docVersion["d"] != v {
			t.Fatalf("seed %d: grew=%v but versions %d / %d", seed, grew, v, sr.docVersion["d"])
		}
		root.Walk(func(n, _ *tree.Node) bool {
			if old[n] && n.Stamp != 0 {
				t.Fatalf("seed %d: a node the document already held was restamped %d", seed, n.Stamp)
			}
			if !old[n] && n.Stamp != v {
				t.Fatalf("seed %d: a fresh node carries stamp %d, want %d", seed, n.Stamp, v)
			}
			return true
		})
	}
}

// TestPropertyAppendKeepsIndexExact grows a document by Append at random
// nodes, several times over, and checks after every step that it equals
// the definitional append-then-reduce and that the incrementally
// maintained index answers random patterns — assignments and freshness
// flags, at every baseline — exactly like an index built from scratch and
// like the walk.
func TestPropertyAppendKeepsIndexExact(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := oneDocSystem(t, appendRandDoc(rng, 3))
		root := s.Document("d").Root
		for step := 0; step < 4; step++ {
			var nodes []*tree.Node
			root.Walk(func(n, _ *tree.Node) bool {
				if n.Kind != tree.Value {
					nodes = append(nodes, n)
				}
				return true
			})
			// Mostly the root and its children: that is where a sibling
			// of the grown node can fall to the spine repair.
			parent := nodes[rng.Intn(len(nodes))]
			if rng.Intn(2) == 0 {
				parent = nodes[rng.Intn(min(len(nodes), 1+len(root.Children)))]
			}
			forest := overlapping(rng, parent)

			// The definitional result, on a copy: Copy keeps child order,
			// so the same walk position is the same node.
			want := root.Copy()
			var wantNodes []*tree.Node
			want.Walk(func(n, _ *tree.Node) bool {
				if n.Kind != tree.Value {
					wantNodes = append(wantNodes, n)
				}
				return true
			})
			for i, n := range nodes {
				if n == parent {
					wantNodes[i].Children = append(wantNodes[i].Children, forest.Copy()...)
				}
			}
			tree.InvalidateDigestAll(want)
			oracle.ReduceInPlace(want)

			if _, err := s.Append("d", parent, forest); err != nil {
				t.Fatal(err)
			}
			if root.Digest() != want.CanonicalHash() {
				t.Fatalf("seed %d step %d: append\n%s\nwant\n%s", seed, step, root.CanonicalString(), want.CanonicalString())
			}

			ix, rebuilt := s.Index("d"), pattern.NewIndex(root)
			if ix.Len() != rebuilt.Len() {
				t.Fatalf("seed %d step %d: index holds %d nodes, a rebuild %d", seed, step, ix.Len(), rebuilt.Len())
			}
			for pi := 0; pi < 10; pi++ {
				p := appendRandPattern(rng, 3)
				if p.Validate() != nil {
					continue
				}
				for since := uint64(0); since <= s.docVersion["d"]; since++ {
					got := stampedKeys(ix, p, root, since)
					for plan, ref := range map[string]*pattern.Index{"rebuilt index": rebuilt, "walk": nil} {
						if want := stampedKeys(ref, p, root, since); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("seed %d step %d since %d, %s:\nmaintained index %v\n%s %v",
								seed, step, since, p, got, plan, want)
						}
					}
				}
			}
		}
	}
}

// TestAppendRejectsWhatItCannotReach: an unknown document and a parent
// that is not (or no longer) in the document are errors, and change
// nothing.
func TestAppendRejectsWhatItCannotReach(t *testing.T) {
	s := oneDocSystem(t, tree.NewLabel("r", tree.NewLabel("a")))
	forest := tree.Forest{tree.NewLabel("b")}
	if _, err := s.Append("nope", s.Document("d").Root, forest); err == nil {
		t.Fatal("append to an unknown document accepted")
	}
	if _, err := s.Append("d", tree.NewLabel("r"), forest); err == nil {
		t.Fatal("append under a node outside the document accepted")
	}
	if got := s.Document("d").Root.CanonicalString(); got != `r{a}` || s.docVersion["d"] != 0 {
		t.Fatalf("a rejected append changed the document: %s (version %d)", got, s.docVersion["d"])
	}
}
