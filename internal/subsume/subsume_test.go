package subsume_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"axml/internal/subsume"
	"axml/internal/subsume/oracle"
	"axml/internal/syntax"
	"axml/internal/tree"
)

func parse(t *testing.T, s string) *tree.Node {
	t.Helper()
	n, err := syntax.ParseDocument(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return n
}

func TestSubsumedBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{`a`, `a`, true},
		{`a`, `b`, false},
		{`a`, `a{b}`, true},            // smaller into larger
		{`a{b}`, `a`, false},           // child requires witness
		{`a{b,c}`, `a{b,c,d}`, true},   // subset of children
		{`a{b,b}`, `a{b}`, true},       // homomorphism may merge siblings
		{`a{b{c}}`, `a{b{c},b}`, true}, // witness with more info
		{`a{b{c}}`, `a{b,b{d}}`, false},
		{`"v"`, `"v"`, true},
		{`"v"`, `"w"`, false},
		{`!f{"5"}`, `!f{"5"}`, true},
		{`!f{"5"}`, `!g{"5"}`, false}, // function subsumption ignored (Sec 2.1 remark)
		{`a{!f{"5"}}`, `a{!g{"5"}}`, false},
		{`a{"x"}`, `a{x}`, false}, // value vs label
	}
	for _, c := range cases {
		got := subsume.Subsumed(parse(t, c.a), parse(t, c.b))
		if got != c.want {
			t.Errorf("subsume.Subsumed(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSubsumedNil(t *testing.T) {
	n := parse(t, "a")
	if !subsume.Subsumed(nil, n) {
		t.Error("nil should be subsumed by anything")
	}
	if subsume.Subsumed(n, nil) {
		t.Error("non-nil subsumed by nil")
	}
}

func TestEquivalent(t *testing.T) {
	a := parse(t, `a{b{c,c},b{c}}`)
	b := parse(t, `a{b{c}}`)
	if !subsume.Equivalent(a, b) {
		t.Fatal("duplicate-collapsed trees should be equivalent")
	}
	if subsume.Equivalent(a, parse(t, `a{b{c,d}}`)) {
		t.Fatal("trees with different info reported equivalent")
	}
}

func TestReducePaperExample(t *testing.T) {
	// Section 2.1: a{b{c,c},b{c,d,d}} reduces to a{b{c,d}}.
	in := parse(t, `a{b{c,c},b{c,d,d}}`)
	want := parse(t, `a{b{c,d}}`)
	got := subsume.Reduce(in)
	if !tree.Isomorphic(got, want) {
		t.Fatalf("Reduce = %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
	// The original must be untouched.
	if in.Size() != 8 {
		t.Fatalf("Reduce mutated its input: size %d", in.Size())
	}
}

func TestReduceKeepsIncomparableSiblings(t *testing.T) {
	in := parse(t, `a{b{c},b{d},e}`)
	got := subsume.Reduce(in)
	if got.Size() != in.Size() {
		t.Fatalf("Reduce dropped incomparable siblings: %s", got.CanonicalString())
	}
}

func TestReduceEquivalentDuplicatesKeepOne(t *testing.T) {
	in := parse(t, `a{b{c},b{c},b{c}}`)
	got := subsume.Reduce(in)
	if !tree.Isomorphic(got, parse(t, `a{b{c}}`)) {
		t.Fatalf("Reduce = %s", got.CanonicalString())
	}
}

func TestIsReduced(t *testing.T) {
	if !subsume.IsReduced(parse(t, `a{b{c},b{d}}`)) {
		t.Error("reduced tree reported unreduced")
	}
	if subsume.IsReduced(parse(t, `a{b,b{c}}`)) {
		t.Error("unreduced tree reported reduced")
	}
	if subsume.IsReduced(parse(t, `a{x{b,b{c}}}`)) {
		t.Error("deep redundancy missed")
	}
	if !subsume.IsReduced(nil) {
		t.Error("nil should be reduced")
	}
}

func TestReduceInPlace(t *testing.T) {
	n := parse(t, `a{b,b{c}}`)
	got := subsume.ReduceInPlace(n)
	if got != n {
		t.Fatal("ReduceInPlace should return its argument")
	}
	if !tree.Isomorphic(n, parse(t, `a{b{c}}`)) {
		t.Fatalf("ReduceInPlace = %s", n.CanonicalString())
	}
}

func TestUnion(t *testing.T) {
	a := parse(t, `a{b{c}}`)
	b := parse(t, `a{b{d},e}`)
	u := subsume.Union(a, b)
	want := parse(t, `a{b{c},b{d},e}`)
	if !tree.Isomorphic(u, want) {
		t.Fatalf("Union = %s, want %s", u.CanonicalString(), want.CanonicalString())
	}
	if subsume.Union(parse(t, `a`), parse(t, `b`)) != nil {
		t.Fatal("Union of incomparable roots should be nil")
	}
	if !tree.Isomorphic(subsume.Union(nil, a), subsume.Reduce(a)) {
		t.Fatal("subsume.Union(nil, a) should reduce a")
	}
	if !tree.Isomorphic(subsume.Union(a, nil), subsume.Reduce(a)) {
		t.Fatal("subsume.Union(a, nil) should reduce a")
	}
}

func TestUnionIsLeastUpperBound(t *testing.T) {
	a := parse(t, `a{b{c},d}`)
	b := parse(t, `a{b{e}}`)
	u := subsume.Union(a, b)
	if !subsume.Subsumed(a, u) || !subsume.Subsumed(b, u) {
		t.Fatal("Union is not an upper bound")
	}
	// Dropping anything from u loses one of them.
	if subsume.Subsumed(a, b) || subsume.Subsumed(b, a) {
		t.Fatal("test inputs should be incomparable")
	}
}

func TestForestOps(t *testing.T) {
	f := tree.Forest{parse(t, `a{b}`), parse(t, `c`)}
	g := tree.Forest{parse(t, `a{b,d}`), parse(t, `c{e}`), parse(t, `z`)}
	if !subsume.ForestSubsumed(f, g) {
		t.Fatal("forest subsumption failed")
	}
	if subsume.ForestSubsumed(g, f) {
		t.Fatal("reverse forest subsumption should fail")
	}
	if !subsume.ForestEquivalent(f, tree.Forest{parse(t, `c`), parse(t, `a{b}`)}) {
		t.Fatal("forest equivalence should ignore order")
	}
	r := subsume.ReduceForest(tree.Forest{parse(t, `a{b}`), parse(t, `a{b,c}`), parse(t, `a{b}`)})
	if len(r) != 1 || !tree.Isomorphic(r[0], parse(t, `a{b,c}`)) {
		t.Fatalf("ReduceForest = %v", r)
	}
}

func TestProposition21ReflexiveTransitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTree(rng, 3)
		b := randomTree(rng, 3)
		c := randomTree(rng, 3)
		if !subsume.Subsumed(a, a) {
			return false
		}
		if subsume.Subsumed(a, b) && subsume.Subsumed(b, c) && !subsume.Subsumed(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProposition21UniqueReducedVersion(t *testing.T) {
	// Reducing any sibling permutation of the same tree yields the same
	// canonical form, and the reduced version is equivalent to the input.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTree(rng, 4)
		p := shuffleTree(rng, n)
		rn, rp := subsume.Reduce(n), subsume.Reduce(p)
		if rn.CanonicalString() != rp.CanonicalString() {
			return false
		}
		return subsume.Equivalent(n, rn) && subsume.IsReduced(rn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnionCommutativeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTree(rng, 3)
		b := randomTree(rng, 3)
		a.Kind, b.Kind = tree.Label, tree.Label
		a.Name, b.Name = "r", "r"
		ab, ba := subsume.Union(a, b), subsume.Union(b, a)
		if ab.CanonicalString() != ba.CanonicalString() {
			return false
		}
		aa := subsume.Union(a, a)
		return subsume.Equivalent(aa, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Local copies of the random generators (kept package-local to avoid
// export-for-test plumbing).
func randomTree(rng *rand.Rand, maxDepth int) *tree.Node {
	kinds := []tree.Kind{tree.Label, tree.Label, tree.Label, tree.Value, tree.Func}
	k := kinds[rng.Intn(len(kinds))]
	name := string(rune('a' + rng.Intn(4)))
	if k == tree.Value || maxDepth == 0 {
		switch k {
		case tree.Func:
			return tree.NewFunc(name)
		case tree.Value:
			return tree.NewValue(name)
		default:
			return tree.NewLabel(name)
		}
	}
	n := &tree.Node{Kind: k, Name: name}
	for i := 0; i < rng.Intn(4); i++ {
		n.Children = append(n.Children, randomTree(rng, maxDepth-1))
	}
	return n
}

func shuffleTree(rng *rand.Rand, n *tree.Node) *tree.Node {
	c := &tree.Node{Kind: n.Kind, Name: n.Name}
	for _, i := range rng.Perm(len(n.Children)) {
		c.Children = append(c.Children, shuffleTree(rng, n.Children[i]))
	}
	return c
}

// TestReducedFlagLifecycle pins the steady-state reduce skip: a reduced
// subtree is marked, an untouched re-reduce is a no-op that keeps the
// mark, and any mutation through the invalidation contract clears it so
// the next reduce really runs.
func TestReducedFlagLifecycle(t *testing.T) {
	n := tree.NewLabel("r",
		tree.NewLabel("a", tree.NewValue("1")),
		tree.NewLabel("a", tree.NewValue("1")), // duplicate: something to prune
	)
	subsume.ReduceInPlace(n)
	if len(n.Children) != 1 {
		t.Fatalf("duplicate not pruned: %s", n)
	}
	if !n.KnownReduced() {
		t.Fatal("reduced tree not marked")
	}
	// Idempotent re-reduce keeps the tree and the mark.
	subsume.ReduceInPlace(n)
	if !n.KnownReduced() || len(n.Children) != 1 {
		t.Fatalf("re-reduce changed the tree: %s", n)
	}

	// Growth through Add clears the mark; reduce then prunes the new
	// duplicate.
	n.Add(n.Children[0].Copy())
	if n.KnownReduced() {
		t.Fatal("mark survived Add")
	}
	subsume.ReduceInPlace(n)
	if len(n.Children) != 1 {
		t.Fatalf("new duplicate not pruned: %s", n)
	}

	// StampAll (Touch/Restore/replica sync) conservatively clears marks
	// everywhere.
	n.StampAll(3)
	if n.KnownReduced() {
		t.Fatal("mark survived StampAll")
	}
}

// TestReduceAfterRawAppend is the out-of-band growth scenario (peer push):
// children appended through a raw slice write leave stale digests and a
// stale reduced mark, which InvalidateDigestAll must clear for reduction
// to see the new data.
func TestReduceAfterRawAppend(t *testing.T) {
	n := tree.NewLabel("r", tree.NewLabel("a", tree.NewValue("1")))
	subsume.ReduceInPlace(n)
	_ = n.Digest()

	// Raw append, bypassing Add: a duplicate plus a genuinely new child.
	n.Children = append(n.Children,
		tree.NewLabel("a", tree.NewValue("1")),
		tree.NewLabel("b"))
	tree.InvalidateDigestAll(n)
	subsume.ReduceInPlace(n)
	if len(n.Children) != 2 {
		t.Fatalf("raw-appended duplicate not pruned: %s", n)
	}
	if n.Digest() != n.CanonicalHash() {
		t.Fatal("digest stale after raw append + invalidate + reduce")
	}
	if !subsume.IsReduced(n) {
		t.Fatalf("not reduced: %s", n)
	}
}

// TestNaiveIgnoresReducedMark: the oracle must not trust (or plant) marks.
func TestNaiveIgnoresReducedMark(t *testing.T) {
	n := tree.NewLabel("r",
		tree.NewLabel("a", tree.NewValue("1")),
		tree.NewLabel("a", tree.NewValue("1")),
	)
	// Plant a wrong mark the way no maintained path would; the naive
	// reducer must still prune.
	n.MarkReduced()
	oracle.ReduceInPlace(n)
	if len(n.Children) != 1 {
		t.Fatalf("naive reduce trusted a planted mark: %s", n)
	}
	if n.KnownReduced() {
		t.Fatal("naive reduce planted a mark")
	}
}
