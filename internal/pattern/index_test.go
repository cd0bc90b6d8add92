package pattern

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"axml/internal/tree"
)

// indexTestDoc builds a catalog-shaped document: root → n departments, each
// with m items carrying sku/qty values, plus one "needle" item with a
// unique sku. Shapes like this are where anchored matching pays: the
// needle's candidate list has length 1 while the tree has ~n*m*5 nodes.
func indexTestDoc(n, m int) *tree.Node {
	root := tree.NewLabel("catalog")
	for i := 0; i < n; i++ {
		dept := tree.NewLabel("dept")
		for j := 0; j < m; j++ {
			dept.Add(tree.NewLabel("item",
				tree.NewLabel("sku", tree.NewValue(fmt.Sprintf("sku-%d-%d", i, j))),
				tree.NewLabel("qty", tree.NewValue(fmt.Sprintf("%d", j%7))),
			))
		}
		root.Add(dept)
	}
	root.Children[0].Add(tree.NewLabel("item",
		tree.NewLabel("sku", tree.NewValue("needle")),
		tree.NewLabel("qty", tree.NewValue("1")),
	))
	return root
}

// Stamped is an assignment with the freshness flag MatchRows set on its
// row.
type Stamped struct {
	Asn Assignment
	New bool
}

// RowOf converts an assignment to a row over the slab's slots: an atom
// binding becomes a node carrying its marking, a tree binding its tree;
// names the plan does not number are dropped. ok is false when a binding
// has the wrong kind for its slot, which is left unbound.
func (s *Slab) RowOf(a Assignment) (r Row, ok bool) {
	r, ok = s.Row(), true
	for i, name := range s.vars.names {
		b, bound := a[name]
		switch k := s.vars.kinds[i]; {
		case !bound:
		case (k == VarTree) != (b.Tree != nil):
			ok = false
		case b.Tree != nil:
			r.s[i] = b.Tree
		default:
			r.s[i] = &tree.Node{Kind: k.treeKind(), Name: b.Atom}
		}
	}
	return r, ok
}

// matchUnder is MatchRows over assignments with no baseline: p compiled
// on its own, base converted to a row on the way in (a binding of the
// wrong kind for its variable matches nothing) and every result row back
// to an assignment extending base on the way out.
func matchUnder(ix *Index, p *Node, d *tree.Node, base Assignment) []Assignment {
	return assignments(matchUnderSince(ix, p, d, base, math.MaxUint64))
}

// matchUnderSince is matchUnder at a baseline, keeping each row's flag.
func matchUnderSince(ix *Index, p *Node, d *tree.Node, base Assignment, since uint64) []Stamped {
	var v Vars
	c := v.Compile(p)
	r, ok := NewSlab(&v).RowOf(base)
	if !ok {
		return nil
	}
	var out []Stamped
	for _, r := range ix.MatchRows(c, d, r, since) {
		out = append(out, Stamped{Asn: r.Assignment(base), New: r.New})
	}
	return out
}

func assignments(sts []Stamped) []Assignment {
	var out []Assignment
	for _, st := range sts {
		out = append(out, st.Asn)
	}
	return out
}

// sortedKeys canonicalizes a result set for order-insensitive comparison.
func sortedKeys(as []Assignment) []string {
	ks := make([]string, len(as))
	for i, a := range as {
		ks[i] = legacyKey(a)
	}
	sort.Strings(ks)
	return ks
}

func sortedStampedKeys(sts []Stamped) []string {
	ks := make([]string, len(sts))
	for i, st := range sts {
		ks[i] = fmt.Sprintf("%s new=%v", legacyKey(st.Asn), st.New)
	}
	sort.Strings(ks)
	return ks
}

func assertSameAssignments(t *testing.T, naive, indexed []Assignment, what string) {
	t.Helper()
	nk, ik := sortedKeys(naive), sortedKeys(indexed)
	if len(nk) != len(ik) {
		t.Fatalf("%s: naive %d results, indexed %d", what, len(nk), len(ik))
	}
	for i := range nk {
		if nk[i] != ik[i] {
			t.Fatalf("%s: result %d differs:\nnaive   %s\nindexed %s", what, i, nk[i], ik[i])
		}
	}
}

// indexTestPatterns is a spread of shapes: selective anchors, common
// anchors, variable-only patterns (naive fallback), bound-variable anchors,
// tree variables, impossible markings (early reject), and a value and a
// function named like a label the document holds, which are other
// markings (early reject too).
func indexTestPatterns() map[string]*Node {
	return map[string]*Node{
		"needle":     Label("catalog", LVar("d", Label("item", Label("sku", Value("needle")), Label("qty", VVar("q"))))),
		"common":     Label("catalog", Label("dept", Label("item", Label("sku", VVar("s"))))),
		"vars-only":  LVar("r", LVar("c")),
		"tree-var":   Label("catalog", Label("dept", Label("item", TVar("T")))),
		"absent":     Label("catalog", Label("dept", Label("item", Label("sku", Value("no-such-sku"))))),
		"deep-pin":   Label("catalog", Label("dept", Label("item", Label("sku", VVar("s")), Label("qty", Value("1"))))),
		"root-const": Label("catalog", LVar("d")),
		"value-sku":  Label("catalog", Label("dept", Label("item", Value("sku")))),
		"func-sku":   Label("catalog", Label("dept", Label("item", Func("sku")))),
	}
}

func TestIndexedMatchEqualsNaive(t *testing.T) {
	doc := indexTestDoc(5, 8)
	ix := NewIndex(doc)
	for name, p := range indexTestPatterns() {
		assertSameAssignments(t, Match(p, doc), matchUnder(ix, p, doc, nil), name)
	}
}

func TestIndexedMatchBoundVarAnchor(t *testing.T) {
	doc := indexTestDoc(5, 8)
	ix := NewIndex(doc)
	// "s" pre-bound to an atom makes the variable node as selective as a
	// constant; the plan may anchor on it.
	p := Label("catalog", LVar("d", Label("item", Label("sku", VVar("s")))))
	base := Assignment{"s": {Atom: "needle"}}
	assertSameAssignments(t, matchUnder(nil, p, doc, base), matchUnder(ix, p, doc, base), "bound-var")
}

func TestIndexedMatchSinceEqualsNaive(t *testing.T) {
	doc := indexTestDoc(4, 6)
	// Give distinct stamps to a slice of the document so freshness flags
	// actually vary.
	doc.StampAll(1)
	fresh := tree.NewLabel("item",
		tree.NewLabel("sku", tree.NewValue("sku-0-0")), // duplicate marking, fresh node
		tree.NewLabel("qty", tree.NewValue("1")),
	)
	fresh.StampAll(5)
	doc.Children[1].Add(fresh)
	ix := NewIndex(doc)
	for name, p := range indexTestPatterns() {
		for _, since := range []uint64{0, 1, 4, 10} {
			naive := matchUnderSince(nil, p, doc, nil, since)
			indexed := matchUnderSince(ix, p, doc, nil, since)
			nk, ik := sortedStampedKeys(naive), sortedStampedKeys(indexed)
			if len(nk) != len(ik) {
				t.Fatalf("%s since=%d: naive %d results, indexed %d", name, since, len(nk), len(ik))
			}
			for i := range nk {
				if nk[i] != ik[i] {
					t.Fatalf("%s since=%d: result %d differs:\nnaive   %s\nindexed %s", name, since, i, nk[i], ik[i])
				}
			}
		}
	}
}

// TestIndexRootRestriction: matches rooted below the indexed root (deep
// contexts, synthetic input trees) must take the naive path and still be
// correct.
func TestIndexRootRestriction(t *testing.T) {
	doc := indexTestDoc(3, 4)
	ix := NewIndex(doc)
	sub := doc.Children[0] // a dept: not the indexed root
	p := Label("dept", Label("item", Label("sku", Value("needle"))))
	h0, m0 := ix.Stats()
	got := matchUnder(ix, p, sub, nil)
	h1, m1 := ix.Stats()
	if h1 != h0 || m1 != m0+1 {
		t.Fatalf("non-root match should count one miss: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	assertSameAssignments(t, matchUnder(nil, p, sub, nil), got, "non-root")
}

func TestIndexHitMissCounters(t *testing.T) {
	doc := indexTestDoc(3, 4)
	ix := NewIndex(doc)

	h0, m0 := ix.Stats()
	matchUnder(ix, Label("catalog", Label("dept", Label("item", Label("sku", Value("needle"))))), doc, nil)
	if h, _ := ix.Stats(); h != h0+1 {
		t.Fatalf("anchored match should count a hit")
	}
	matchUnder(ix, Label("catalog", Label("dept", Label("item", Label("sku", Value("absent-marking"))))), doc, nil)
	if h, _ := ix.Stats(); h != h0+2 {
		t.Fatalf("early reject should count a hit")
	}
	matchUnder(ix, LVar("r", LVar("c")), doc, nil)
	if _, m := ix.Stats(); m != m0+1 {
		t.Fatalf("anchor-free pattern should count a miss")
	}

	var nilIx *Index
	if got := matchUnder(nilIx, Label("catalog"), doc, nil); len(got) != 1 {
		t.Fatalf("nil index should still match naively, got %d results", len(got))
	}
	if h, m := nilIx.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil index stats should be zero")
	}
}

// TestIndexMaintenance drives Add/Remove/Compact the way core's merge does
// and checks the index answers stay equal to the naive walk throughout.
func TestIndexMaintenance(t *testing.T) {
	doc := indexTestDoc(2, 3)
	ix := NewIndex(doc)
	p := Label("catalog", Label("dept", Label("item", Label("sku", VVar("s")))))

	// Grow: append a subtree under dept 0, as a merge attaching fresh
	// results would.
	add := tree.NewLabel("item", tree.NewLabel("sku", tree.NewValue("added-1")))
	doc.Children[0].Add(add)
	ix.AddSubtree(doc.Children[0], add)
	assertSameAssignments(t, Match(p, doc), matchUnder(ix, p, doc, nil), "after add")

	// Prune: detach an item the way merge prunes a dominated sibling.
	dept := doc.Children[1]
	victim := dept.Children[0]
	dept.Children = append([]*tree.Node{}, dept.Children[1:]...)
	ix.RemoveSubtree(victim)
	ix.Compact()
	assertSameAssignments(t, Match(p, doc), matchUnder(ix, p, doc, nil), "after remove")
	// The pruned sku must no longer be reachable through the index.
	gone := Label("catalog", Label("dept", Label("item", Label("sku", Value("sku-1-0")))))
	if got := matchUnder(ix, gone, doc, nil); len(got) != 0 {
		t.Fatalf("pruned subtree still matched: %d results", len(got))
	}

	// A heavy round of removals must survive the forced rebuild path.
	for i := 0; i < 2000; i++ {
		n := tree.NewLabel("churn", tree.NewValue(fmt.Sprintf("%d", i)))
		doc.Children[0].Add(n)
		ix.AddSubtree(doc.Children[0], n)
	}
	kept := doc.Children[0].Children[:0]
	for _, c := range doc.Children[0].Children {
		if c.Name == "churn" {
			ix.RemoveSubtree(c)
			continue
		}
		kept = append(kept, c)
	}
	doc.Children[0].Children = kept
	ix.Compact()
	assertSameAssignments(t, Match(p, doc), matchUnder(ix, p, doc, nil), "after churn")
	if ix.Len() == 0 {
		t.Fatalf("index emptied by compact")
	}
}

func TestIndexSelectivity(t *testing.T) {
	doc := indexTestDoc(3, 4)
	ix := NewIndex(doc)
	needle := Label("item", Label("sku", Value("needle")))
	broad := Label("item", Label("sku", VVar("s")))
	if s := ix.Selectivity(new(Vars).Compile(needle)); s != 1 {
		t.Fatalf("needle selectivity = %d, want 1", s)
	}
	if ns, bs := ix.Selectivity(new(Vars).Compile(needle)), ix.Selectivity(new(Vars).Compile(broad)); ns >= bs {
		t.Fatalf("needle (%d) should be more selective than broad (%d)", ns, bs)
	}
	if s := ix.Selectivity(new(Vars).Compile(LVar("x"))); s != math.MaxInt {
		t.Fatalf("variable-only selectivity = %d, want MaxInt", s)
	}
	// The document holds the label sku only: the value and the function
	// sku have no candidate, and match nothing on either plan.
	for _, name := range []string{"value-sku", "func-sku"} {
		p := indexTestPatterns()[name]
		if s := ix.Selectivity(new(Vars).Compile(p)); s != 0 {
			t.Fatalf("%s selectivity = %d, want 0", name, s)
		}
		if w, i := Match(p, doc), matchUnder(ix, p, doc, nil); len(w) != 0 || len(i) != 0 {
			t.Fatalf("%s matched: walk %d, indexed %d", name, len(w), len(i))
		}
	}
	var nilIx *Index
	if s := nilIx.Selectivity(new(Vars).Compile(needle)); s != math.MaxInt {
		t.Fatalf("nil index selectivity = %d, want MaxInt", s)
	}
}

// TestIndexSelectivitySkipsRoot pins that the pattern root does not count:
// its marking is the indexed root's, once in every index it can match, so
// counting it would rate every document-wide atom 1.
func TestIndexSelectivitySkipsRoot(t *testing.T) {
	r := tree.NewLabel("r")
	for i := 0; i < 190; i++ {
		r.Add(tree.NewLabel("t", tree.NewLabel("a", tree.NewValue(fmt.Sprint(i)))))
	}
	if s := NewIndex(r).Selectivity(new(Vars).Compile(Label("r", Label("t", Label("a", VVar("x")))))); s != 190 {
		t.Fatalf("r{t{a{$x}}} selectivity = %d, want 190", s)
	}
}

// TestIndexedMatchRandomized cross-checks on random documents and random
// patterns drawn from the document's own markings. Nodes carry random
// stamps (from a second source, so the documents and patterns are the ones
// seed 7 always drew), which also pins the identities the single matcher
// rests on: the baseline never changes which assignments match, only
// their flags, and no flag is set at the math.MaxUint64 baseline Match
// itself runs at.
func TestIndexedMatchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stampRng := rand.New(rand.NewSource(11))
	labels := []string{"a", "b", "c", "d"}
	values := []string{"u", "v", "w"}
	randTree := func(depth int) *tree.Node {
		var build func(d int) *tree.Node
		build = func(d int) *tree.Node {
			if d == 0 || rng.Intn(4) == 0 {
				return tree.NewValue(values[rng.Intn(len(values))])
			}
			n := tree.NewLabel(labels[rng.Intn(len(labels))])
			for i := 0; i < 1+rng.Intn(3); i++ {
				n.Add(build(d - 1))
			}
			return n
		}
		root := tree.NewLabel("root")
		for i := 0; i < 3+rng.Intn(3); i++ {
			root.Add(build(depth))
		}
		return root
	}
	randPattern := func(depth int) *Node {
		var build func(d int) *Node
		build = func(d int) *Node {
			switch {
			case d == 0 || rng.Intn(4) == 0:
				switch rng.Intn(3) {
				case 0:
					return Value(values[rng.Intn(len(values))])
				case 1:
					return VVar(fmt.Sprintf("v%d", rng.Intn(3)))
				default:
					return TVar(fmt.Sprintf("t%d", rng.Intn(2)))
				}
			case rng.Intn(3) == 0:
				n := LVar(fmt.Sprintf("l%d", rng.Intn(3)))
				for i := 0; i < 1+rng.Intn(2); i++ {
					n.Children = append(n.Children, build(d-1))
				}
				return n
			default:
				n := Label(labels[rng.Intn(len(labels))])
				for i := 0; i < 1+rng.Intn(2); i++ {
					n.Children = append(n.Children, build(d-1))
				}
				return n
			}
		}
		root := Label("root")
		for i := 0; i < 1+rng.Intn(2); i++ {
			root.Children = append(root.Children, build(depth))
		}
		return root
	}
	for trial := 0; trial < 60; trial++ {
		doc := randTree(4)
		doc.Walk(func(n, _ *tree.Node) bool {
			n.Stamp = uint64(stampRng.Intn(9))
			return true
		})
		maxStamp := doc.MaxStamp()
		ix := NewIndex(doc)
		for pi := 0; pi < 10; pi++ {
			p := randPattern(3)
			if err := p.Validate(); err != nil {
				continue
			}
			want := Match(p, doc)
			for _, since := range []uint64{0, maxStamp / 2, maxStamp, math.MaxUint64} {
				for plan, sts := range map[string][]Stamped{
					"walk":    matchUnderSince(nil, p, doc, nil, since),
					"indexed": matchUnderSince(ix, p, doc, nil, since),
				} {
					what := fmt.Sprintf("trial %d pattern %d since %d %s: %s", trial, pi, since, plan, p)
					assertSameAssignments(t, want, assignments(sts), what)
					for _, st := range sts {
						if st.New && since >= maxStamp {
							t.Fatalf("%s: %s flagged new above every stamp", what, legacyKey(st.Asn))
						}
					}
				}
			}
			assertSameAssignments(t, Match(p, doc), matchUnder(ix, p, doc, nil),
				fmt.Sprintf("trial %d pattern %d: %s", trial, pi, p))
			since := uint64(rng.Intn(3))
			nk := sortedStampedKeys(matchUnderSince(nil, p, doc, nil, since))
			ik := sortedStampedKeys(matchUnderSince(ix, p, doc, nil, since))
			if len(nk) != len(ik) {
				t.Fatalf("trial %d pattern %d since %d: naive %d, indexed %d (%s)",
					trial, pi, since, len(nk), len(ik), p)
			}
			for i := range nk {
				if nk[i] != ik[i] {
					t.Fatalf("trial %d pattern %d since %d: %s vs %s (%s)",
						trial, pi, since, nk[i], ik[i], p)
				}
			}
		}
	}
}

// TestMatchDeltaLogOutOfOrder pins the log's stamp-order guard: a subtree
// indexed after a newer one makes baselines older than the newer one walk
// for their fresh roots, because a search of the log by stamp would see
// the late subtree as fresh for a baseline above its stamp.
func TestMatchDeltaLogOutOfOrder(t *testing.T) {
	root := tree.NewLabel("r")
	ix := NewIndex(root)
	tuple := func(v string, stamp uint64) *tree.Node {
		n := tree.NewLabel("t", tree.NewValue(v))
		n.StampAll(stamp)
		root.Add(n)
		ix.AddSubtree(root, n)
		return n
	}
	tuple("new", 5)
	tuple("late", 3)
	var v Vars
	c := v.Compile(Label("r", Label("t", VVar("x"))))
	for since, want := range map[uint64]string{2: "late new", 4: "new", 5: ""} {
		var got []string
		for _, r := range ix.MatchDelta(c, root, NewSlab(&v).Row(), since) {
			got = append(got, r.Assignment(nil)["x"].Atom)
		}
		sort.Strings(got)
		if g := fmt.Sprint(got); g != fmt.Sprint(strings.Fields(want)) {
			t.Errorf("since %d: delta rows x=%s, want %v", since, g, strings.Fields(want))
		}
	}
}
