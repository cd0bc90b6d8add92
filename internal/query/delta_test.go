package query_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// growingDoc is a document grown the way a system grows one: every append
// is a subsume.Graft under a node's path whose fresh trees are restamped
// at a new version and logged by the index (AddSubtree), and a touch
// restamps the whole tree and rebuilds the index.
type growingDoc struct {
	root    *tree.Node
	ix      *pattern.Index
	version uint64
}

func newGrowingDoc(root *tree.Node) *growingDoc {
	g := &growingDoc{root: root, version: 1}
	root.StampAll(g.version)
	g.ix = pattern.NewIndex(root)
	return g
}

// appendAt grafts forest under the last node of path.
func (g *growingDoc) appendAt(path []*tree.Node, forest tree.Forest) {
	fresh, detached := subsume.Graft(path, forest)
	if len(fresh) == 0 {
		return
	}
	for _, d := range detached {
		g.ix.RemoveSubtree(d)
	}
	g.version++
	for _, f := range fresh {
		f.Restamp(g.version)
		g.ix.AddSubtree(path[len(path)-1], f)
	}
	g.ix.Compact()
}

func (g *growingDoc) touch() {
	g.version++
	g.root.StampAll(g.version)
	g.ix = pattern.NewIndex(g.root)
}

// grow makes one random step: a new tuple at the root, a new child of a
// tuple (a labelled value or a bare value), a new value under a tuple's
// child, or now and then a touch.
func (g *growingDoc) grow(rng *rand.Rand) {
	val := func() *tree.Node { return tree.NewValue(fmt.Sprint("n", rng.Intn(6))) }
	var paths [][]*tree.Node
	var walk func(n *tree.Node, path []*tree.Node)
	walk = func(n *tree.Node, path []*tree.Node) {
		path = append(path[:len(path):len(path)], n)
		if n.Kind == tree.Label {
			paths = append(paths, path)
		}
		for _, c := range n.Children {
			walk(c, path)
		}
	}
	walk(g.root, nil)
	switch k := rng.Intn(10); {
	case k == 0:
		g.touch()
	case k < 5:
		g.appendAt(paths[0], tree.Forest{tree.NewLabel("t", tree.NewLabel("a", val()), tree.NewLabel("b", val()))})
	default:
		path := paths[rng.Intn(len(paths))]
		switch rng.Intn(3) {
		case 0:
			g.appendAt(path, tree.Forest{tree.NewLabel([]string{"a", "b"}[rng.Intn(2)], val())})
		default:
			g.appendAt(path, tree.Forest{val()})
		}
	}
}

// TestDeltaRowsMatchFiltered pins the delta rules to the rows they
// replace: with a baseline, the evaluation's rows are exactly the
// nested-loop join's rows flagged New, walking and indexed, at every
// baseline of documents grown by random stamped appends.
func TestDeltaRowsMatchFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		checkDeltaRows(t, rng, fmt.Sprint("trial ", trial))
	}
}

// FuzzDeltaRowsMatchFiltered is TestDeltaRowsMatchFiltered's property for
// the random query, documents and growth a seed draws.
func FuzzDeltaRowsMatchFiltered(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkDeltaRows(t, rand.New(rand.NewSource(seed)), fmt.Sprint("seed ", seed))
	})
}

// checkDeltaRows grows documents d and e by random appends, draws a random
// query over d, e and a context inside d or at its root, and checks the
// delta rows at every baseline against the New-filtered nested loop, and
// HasDelta on each atom against MatchRows' flags.
func checkDeltaRows(t *testing.T, rng *rand.Rand, trial string) {
	t.Helper()
	src := randomJoinQuery(rng)
	qq, err := syntax.ParseQuery(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if err := qq.Validate(); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	d := newGrowingDoc(relation("r", chainPairs(2+rng.Intn(4))))
	e := newGrowingDoc(relation("r", closurePairs(2+rng.Intn(3))))
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		[]*growingDoc{d, e}[rng.Intn(2)].grow(rng)
	}
	ctx := d.root
	if rng.Intn(2) == 0 {
		ctx = d.root.Children[rng.Intn(len(d.root.Children))]
	}
	docs := query.Docs{"d": d.root, "e": e.root, tree.Context: ctx}
	ixs := query.Indexes{"d": d.ix, "e": e.ix, tree.Context: d.ix}
	for v := uint64(0); v <= max(d.version, e.version); v++ {
		for _, since := range []map[string]uint64{
			{"d": v, "e": v, tree.Context: v},
			{"d": v, tree.Context: v},
			{"e": v},
		} {
			for mode, ix := range map[string]query.Indexes{"walk": nil, "indexed": ixs} {
				what := fmt.Sprintf("%s, %s, %s, since %v", trial, src, mode, since)
				got, err := query.BodyAssignmentsSince(qq, docs, since, ix)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want := nestedLoopBodyAssignments(qq, docs, since, ix)
				if g, w := asnKeys(got), newKeys(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Fatalf("%s over d=%s e=%s:\ngot  %v\nwant %v", what, d.root, e.root, g, w)
				}
				// The merge gate's test: an atom has a delta row iff some
				// row of its full match is flagged New.
				for _, a := range qq.Body {
					base, known := since[a.Doc]
					if !known {
						continue
					}
					var v pattern.Vars
					c := v.Compile(a.Pattern)
					flagged := slices.ContainsFunc(ix[a.Doc].MatchRows(c, docs[a.Doc], pattern.NewSlab(&v).Row(), base), func(r pattern.Row) bool { return r.New })
					if has := ix[a.Doc].HasDelta(c, docs[a.Doc], pattern.NewSlab(&v).Row(), base); has != flagged {
						t.Fatalf("%s: HasDelta(%s) = %v, a New row %v", what, a, has, flagged)
					}
				}
			}
		}
	}
}
