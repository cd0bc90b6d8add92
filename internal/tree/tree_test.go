package tree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleTree() *Node {
	return NewLabel("directory",
		NewLabel("cd",
			NewLabel("title", NewValue("L'amour")),
			NewLabel("singer", NewValue("Carla Bruni")),
			NewLabel("rating", NewValue("***")),
		),
		NewLabel("cd",
			NewLabel("title", NewValue("Body and Soul")),
			NewFunc("GetRating", NewValue("Body and Soul")),
		),
		NewFunc("FreeMusicDB", NewLabel("type", NewValue("Jazz"))),
	)
}

func TestConstructorsAndKinds(t *testing.T) {
	n := sampleTree()
	if n.Kind != Label || n.Name != "directory" {
		t.Fatalf("root = %v %q", n.Kind, n.Name)
	}
	if got := n.Size(); got != 16 {
		t.Fatalf("Size = %d, want 16", got)
	}
	if got := n.Depth(); got != 4 {
		t.Fatalf("Depth = %d, want 4", got)
	}
	if got := n.CountFunc(); got != 2 {
		t.Fatalf("CountFunc = %d, want 2", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Label: "label", Value: "value", Func: "func", Kind(9): "kind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := sampleTree()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	bad := NewLabel("a", &Node{Kind: Value, Name: "v", Children: []*Node{NewLabel("b")}})
	if err := bad.Validate(); err == nil {
		t.Fatal("value node with children accepted")
	}
	withNil := NewLabel("a")
	withNil.Children = append(withNil.Children, nil)
	if err := withNil.Validate(); err == nil {
		t.Fatal("nil child accepted")
	}
	var nilNode *Node
	if err := nilNode.Validate(); err == nil {
		t.Fatal("nil node accepted")
	}
}

func TestCopyIsDeep(t *testing.T) {
	orig := sampleTree()
	cp := orig.Copy()
	if !Isomorphic(orig, cp) {
		t.Fatal("copy not isomorphic to original")
	}
	cp.Children[0].Name = "mutated"
	if orig.Children[0].Name == "mutated" {
		t.Fatal("Copy shares nodes with the original")
	}
}

func TestCanonicalStringOrderIndependence(t *testing.T) {
	a := NewLabel("a", NewLabel("b", NewValue("1")), NewLabel("c"), NewFunc("f"))
	b := NewLabel("a", NewFunc("f"), NewLabel("c"), NewLabel("b", NewValue("1")))
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatalf("canonical differs:\n%s\n%s", a.CanonicalString(), b.CanonicalString())
	}
	if a.String() == b.String() {
		t.Fatal("plain String should preserve child order (sanity)")
	}
}

func TestCanonicalDistinguishesKinds(t *testing.T) {
	label := NewLabel("x")
	value := NewValue("x")
	fn := NewFunc("x")
	if label.CanonicalString() == value.CanonicalString() {
		t.Fatal("label and value x not distinguished")
	}
	if label.CanonicalString() == fn.CanonicalString() {
		t.Fatal("label and function x not distinguished")
	}
	if value.CanonicalString() == fn.CanonicalString() {
		t.Fatal("value and function x not distinguished")
	}
}

func TestWalkPreorderAndStop(t *testing.T) {
	n := sampleTree()
	var seen []string
	n.Walk(func(node, parent *Node) bool {
		seen = append(seen, node.Name)
		return true
	})
	if len(seen) != n.Size() {
		t.Fatalf("walked %d nodes, want %d", len(seen), n.Size())
	}
	if seen[0] != "directory" {
		t.Fatalf("preorder starts at %q", seen[0])
	}
	count := 0
	n.Walk(func(node, parent *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("walk did not stop: %d", count)
	}
}

func TestWalkReportsParents(t *testing.T) {
	n := sampleTree()
	n.Walk(func(node, parent *Node) bool {
		if node == n {
			if parent != nil {
				t.Error("root has a parent")
			}
			return true
		}
		found := false
		for _, c := range parent.Children {
			if c == node {
				found = true
			}
		}
		if !found {
			t.Errorf("node %q not a child of reported parent %q", node.Name, parent.Name)
		}
		return true
	})
}

func TestFuncNodes(t *testing.T) {
	n := sampleTree()
	occs := n.FuncNodes()
	if len(occs) != 2 {
		t.Fatalf("FuncNodes = %d, want 2", len(occs))
	}
	names := map[string]bool{}
	for _, o := range occs {
		names[o.Node.Name] = true
		if o.Parent == nil {
			t.Errorf("function %q has nil parent", o.Node.Name)
		}
	}
	if !names["GetRating"] || !names["FreeMusicDB"] {
		t.Fatalf("unexpected function names: %v", names)
	}
}

func TestIndent(t *testing.T) {
	out := NewLabel("a", NewValue("v"), NewFunc("f")).Indent()
	want := "a\n  \"v\"\n  !f\n"
	if out != want {
		t.Fatalf("Indent = %q, want %q", out, want)
	}
}

func TestDocumentAndForest(t *testing.T) {
	d := NewDocument("d", sampleTree())
	cp := d.Copy()
	if cp.Name != "d" || !Isomorphic(cp.Root, d.Root) {
		t.Fatal("document copy broken")
	}
	if !strings.HasPrefix(d.String(), "d/directory{") {
		t.Fatalf("Document.String = %q", d.String())
	}
	f := Forest{NewLabel("b"), NewLabel("a")}
	g := Forest{NewLabel("a"), NewLabel("b")}
	if f.CanonicalString() != g.CanonicalString() {
		t.Fatal("forest canonical string is order dependent")
	}
	if f.Size() != 2 {
		t.Fatalf("forest size = %d", f.Size())
	}
	fc := f.Copy()
	fc[0].Name = "z"
	if f[0].Name == "z" {
		t.Fatal("forest copy shares nodes")
	}
	var nilForest Forest
	if nilForest.Copy() != nil {
		t.Fatal("nil forest copy should be nil")
	}
}

// randomTree builds a random tree for property tests.
func randomTree(rng *rand.Rand, maxDepth int) *Node {
	kinds := []Kind{Label, Label, Label, Value, Func}
	k := kinds[rng.Intn(len(kinds))]
	name := string(rune('a' + rng.Intn(4)))
	if k == Value || maxDepth == 0 {
		if k == Func {
			return NewFunc(name)
		}
		if k == Value {
			return NewValue(name)
		}
		return NewLabel(name)
	}
	n := &Node{Kind: k, Name: name}
	for i := 0; i < rng.Intn(4); i++ {
		n.Children = append(n.Children, randomTree(rng, maxDepth-1))
	}
	return n
}

func shuffleTree(rng *rand.Rand, n *Node) *Node {
	c := &Node{Kind: n.Kind, Name: n.Name}
	perm := rng.Perm(len(n.Children))
	for _, i := range perm {
		c.Children = append(c.Children, shuffleTree(rng, n.Children[i]))
	}
	return c
}

func TestPropertyCanonicalInvariantUnderShuffle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTree(rng, 4)
		s := shuffleTree(rng, n)
		return n.CanonicalString() == s.CanonicalString() && Isomorphic(n, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCopyPreservesCanonical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTree(rng, 4)
		return n.Copy().CanonicalString() == n.CanonicalString()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySizeDepthConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTree(rng, 4)
		return n.Depth() <= n.Size() && n.Size() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsOf(t *testing.T) {
	st := StatsOf(sampleTree())
	if st.Nodes != 16 || st.Depth != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Calls != 2 || st.Values != 6 || st.Labels != 8 {
		t.Fatalf("kind counts = %+v", st)
	}
	if st.Labels+st.Values+st.Calls != st.Nodes {
		t.Fatalf("counts do not add up: %+v", st)
	}
}

// TestNodeSize pins the node at 64 bytes. 64 B is a Go size class, so a
// node costs exactly its size; one more word makes it 72 B, which the
// allocator rounds up to the 80 B class, a quarter more per node.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 64", got)
	}
}
