package query_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// nestedLoopFold and nestedLoopBodyAssignments are the body join as it
// was before join keys: every partial result probes every atom, and the
// extensions are deduplicated after each atom. They are the oracle the
// keyed join must agree with, assignment by assignment and flag by flag.
// It stays on name-keyed assignments: each atom is matched on its own and
// natural-joined with every partial result by name, and the inequalities
// and the head are checked and instantiated by name, so it shares no join,
// bind or key code with the rows it checks. The join order is the body's
// own, so it does not share the planner either.
func nestedLoopFold[A any](n int, seed A, step func(i int, base A) []A, dedup func([]A) []A) []A {
	cur := []A{seed}
	for i := 0; i < n; i++ {
		var next []A
		for _, base := range cur {
			next = append(next, step(i, base)...)
		}
		if len(next) == 0 {
			return nil
		}
		cur = dedup(next)
	}
	return cur
}

// stamped is an assignment with the oracle's freshness flag: some atom's
// binding has a witnessing embedding touching a node stamped after its
// baseline.
type stamped struct {
	Asn pattern.Assignment
	New bool
}

func nestedLoopBodyAssignments(q *query.Query, docs query.Docs, since map[string]uint64, ixs query.Indexes) []stamped {
	atoms := q.Body
	seed := stamped{Asn: pattern.Assignment{}, New: since == nil}
	sts := nestedLoopFold(len(atoms), seed, func(i int, st stamped) []stamped {
		a := atoms[i]
		base, known := since[a.Doc]
		if !known {
			base = math.MaxUint64 // nothing to track: all new below
		}
		if docs[a.Doc] == nil {
			return nil
		}
		var v pattern.Vars
		c := v.Compile(a.Pattern)
		var ms []stamped
		for _, m := range ixs[a.Doc].MatchRows(c, docs[a.Doc], pattern.NewSlab(&v).Row(), base) {
			if asn, ok := joinAssignments(st.Asn, m.Assignment(nil)); ok {
				ms = append(ms, stamped{Asn: asn, New: m.New || st.New || !known})
			}
		}
		return ms
	}, dedupStamped)
	out := sts[:0]
	for _, st := range sts {
		if ineqsHold(q.Ineqs, st.Asn) {
			out = append(out, st)
		}
	}
	return out
}

// joinAssignments is the natural join of two assignments: their union,
// when they bind every shared variable alike (atoms by name, trees by
// canonical form).
func joinAssignments(a, b pattern.Assignment) (pattern.Assignment, bool) {
	out := a.Copy()
	for name, bb := range b {
		ab, ok := a[name]
		switch {
		case !ok:
			out[name] = bb
		case (ab.Tree == nil) != (bb.Tree == nil), ab.Atom != bb.Atom:
			return nil, false
		case ab.Tree != nil && ab.Tree.CanonicalString() != bb.Tree.CanonicalString():
			return nil, false
		}
	}
	return out, true
}

// ineqsHold reports whether the two sides of every inequality differ
// under a (the queries are validated: every variable is atom-bound).
func ineqsHold(ineqs []query.Ineq, a pattern.Assignment) bool {
	val := func(t query.Term) string {
		if t.Var == "" {
			return t.Const
		}
		return a[t.Var].Atom
	}
	for _, e := range ineqs {
		if val(e.Left) == val(e.Right) {
			return false
		}
	}
	return true
}

// asnKey identifies an assignment: its sorted bindings, trees by
// canonical form.
func asnKey(a pattern.Assignment) string {
	parts := make([]string, 0, len(a))
	for name, b := range a {
		if b.Tree != nil {
			parts = append(parts, name+"=t:"+b.Tree.CanonicalString())
		} else {
			parts = append(parts, name+"=a:"+b.Atom)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// instantiate is µ(h) for an assignment binding every variable of h.
func instantiate(h *pattern.Node, a pattern.Assignment) *tree.Node {
	if h.Kind == pattern.VarTree {
		return a[h.Name].Tree.Copy()
	}
	name := h.Name
	if h.Kind.IsVar() {
		name = a[h.Name].Atom
	}
	var n *tree.Node
	switch h.Kind {
	case pattern.ConstValue, pattern.VarValue:
		n = tree.NewValue(name)
	case pattern.ConstFunc, pattern.VarFunc:
		n = tree.NewFunc(name)
	default:
		n = tree.NewLabel(name)
	}
	for _, c := range h.Children {
		n.Add(instantiate(c, a))
	}
	return n
}

// dedupStamped deduplicates by assignment key in place, OR-ing the New
// flags: an assignment is new iff at least one of its witnessing
// embeddings is.
func dedupStamped(as []stamped) []stamped {
	idx := make(map[string]int, len(as))
	out := as[:0]
	for _, a := range as {
		k := asnKey(a.Asn)
		if i, ok := idx[k]; ok {
			out[i].New = out[i].New || a.New
			continue
		}
		idx[k] = len(out)
		out = append(out, a)
	}
	return out
}

// relation encodes pairs as r{t{a{x},b{y}},...}, the shape of Example
// 3.2's documents.
func relation(root string, pairs [][2]string) *tree.Node {
	r := tree.NewLabel(root)
	for _, p := range pairs {
		r.Add(tree.NewLabel("t", tree.NewLabel("a", tree.NewValue(p[0])), tree.NewLabel("b", tree.NewValue(p[1]))))
	}
	return r
}

// closurePairs is the transitive closure of an n-chain: n-1 distinct
// second components shared by many pairs (repeated join keys).
func closurePairs(n int) [][2]string {
	var out [][2]string
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, [2]string{fmt.Sprint("n", i), fmt.Sprint("n", j)})
		}
	}
	return out
}

// chainPairs is an n-chain: every join key occurs once.
func chainPairs(n int) [][2]string {
	out := make([][2]string, n)
	for i := range out {
		out[i] = [2]string{fmt.Sprint("n", i), fmt.Sprint("n", i+1)}
	}
	return out
}

// randomJoinQuery builds a valid random query over documents d, e and
// context: joins and self-joins through shared value and label
// variables, tree variables, constants, inequalities and the empty body.
func randomJoinQuery(rng *rand.Rand) string {
	kinds := map[string]byte{} // bound variable → sigil
	term := func() string {
		if rng.Intn(5) == 0 {
			return fmt.Sprintf(`"n%d"`, rng.Intn(4))
		}
		v := string("xyzw"[rng.Intn(4)])
		kinds[v] = '$'
		return "$" + v
	}
	doc := func() string { return []string{"d", "d", "e"}[rng.Intn(3)] }
	var atoms []string
	for i, n := 0, rng.Intn(4); i < n; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			atoms = append(atoms, fmt.Sprintf("%s/r{t{a{%s},b{%s}}}", doc(), term(), term()))
		case 2:
			atoms = append(atoms, fmt.Sprintf("%s/r{t{a{%s}},t{b{%s}}}", doc(), term(), term()))
		case 3:
			kinds["l"] = '%'
			atoms = append(atoms, fmt.Sprintf("%s/r{%%l{%s}}", doc(), term()))
		case 4:
			tv := fmt.Sprint("T", i)
			kinds[tv] = '#'
			atoms = append(atoms, fmt.Sprintf("%s/r{t{a{%s},#%s}}", doc(), term(), tv))
		default:
			atoms = append(atoms, fmt.Sprintf("context/t{a{%s},b{%s}}", term(), term()))
		}
	}
	vars := make([]string, 0, len(kinds))
	for v := range kinds {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var head, atomVars []string
	for _, v := range vars {
		if kinds[v] != '#' {
			atomVars = append(atomVars, string(kinds[v])+v)
		}
		if rng.Intn(2) == 0 {
			head = append(head, fmt.Sprintf("v{%c%s}", kinds[v], v))
		}
	}
	for i, n := 0, rng.Intn(3); i < n && len(atomVars) > 0; i++ {
		l := atomVars[rng.Intn(len(atomVars))]
		r := fmt.Sprintf(`"n%d"`, rng.Intn(4))
		if rng.Intn(2) == 0 {
			r = atomVars[rng.Intn(len(atomVars))]
		}
		if l != r {
			atoms = append(atoms, l+" != "+r)
		}
	}
	h := "h"
	if len(head) > 0 {
		h += "{" + strings.Join(head, ",") + "}"
	}
	return h + " :- " + strings.Join(atoms, ", ")
}

// newKeys are the keys of the oracle's rows flagged New: the rows the
// evaluation must return, sorted.
func newKeys(sts []stamped) []string {
	var out []string
	for _, st := range sts {
		if st.New {
			out = append(out, asnKey(st.Asn))
		}
	}
	sort.Strings(out)
	return out
}

// asnKeys are the assignments' keys, sorted.
func asnKeys(as []pattern.Assignment) []string {
	var out []string
	for _, a := range as {
		out = append(out, asnKey(a))
	}
	sort.Strings(out)
	return out
}

// TestKeyedJoinMatchesNestedLoop pins the keyed join, the delta rules, the
// index built on demand and the head dedup to the nested-loop join: the
// rows are the oracle's rows flagged New (all of them without a
// baseline), and the forest is theirs, for random queries on repeated-key
// (closure), unique-key (chain) and one-node documents, walking and
// indexed, without and with a baseline.
func TestKeyedJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 400; trial++ {
		checkKeyedJoin(t, rng, fmt.Sprint("trial ", trial))
	}
}

// FuzzJoinMatchesNestedLoop is TestKeyedJoinMatchesNestedLoop's property
// for the random query, documents and stamps a seed draws.
func FuzzJoinMatchesNestedLoop(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkKeyedJoin(t, rand.New(rand.NewSource(seed)), fmt.Sprint("seed ", seed))
	})
}

// checkKeyedJoin draws one random query over documents d, e and context
// and checks the keyed join against the nested loop on it.
func checkKeyedJoin(t *testing.T, rng *rand.Rand, trial string) {
	t.Helper()
	shapes := map[string]func() *tree.Node{
		"closure": func() *tree.Node { return relation("r", closurePairs(6)) },
		"chain":   func() *tree.Node { return relation("r", chainPairs(12)) },
		"one":     func() *tree.Node { return tree.NewLabel("r") },
	}
	names := []string{"closure", "chain", "one"}
	src := randomJoinQuery(rng)
	qq, err := syntax.ParseQuery(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if err := qq.Validate(); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	dn, en := names[rng.Intn(2)], names[rng.Intn(3)]
	d, e := shapes[dn](), shapes[en]()
	for _, doc := range []*tree.Node{d, e} {
		doc.Stamp = 1
		for _, c := range doc.Children {
			c.StampAll(uint64(1 + rng.Intn(2)))
		}
	}
	docs := query.Docs{"d": d, "e": e, tree.Context: d.Children[rng.Intn(len(d.Children))]}
	ixs := query.Indexes{"d": pattern.NewIndex(d), "e": pattern.NewIndex(e), tree.Context: pattern.NewIndex(d)}
	for _, since := range []map[string]uint64{nil, {"d": 1, "e": 1, tree.Context: 1}, {"d": 1}} {
		for mode, ix := range map[string]query.Indexes{"walk": nil, "indexed": ixs} {
			what := fmt.Sprintf("%s, %s over d=%s e=%s, %s, since %v", trial, src, dn, en, mode, since)
			want := nestedLoopBodyAssignments(qq, docs, since, ix)
			got, err := query.BodyAssignmentsSince(qq, docs, since, ix)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if g, w := asnKeys(got), newKeys(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Fatalf("%s:\ngot  %v\nwant %v", what, g, w)
			}
			var wantForest tree.Forest
			for _, st := range want {
				if st.New {
					wantForest = append(wantForest, instantiate(qq.Head, st.Asn))
				}
			}
			gotForest, err := query.SnapshotSince(qq, docs, since, ix)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if g, w := gotForest.CanonicalString(), subsume.ReduceForest(wantForest).CanonicalString(); g != w {
				t.Fatalf("%s: forest\ngot  %s\nwant %s", what, g, w)
			}
		}
	}
}

// TestConcurrentSnapshotSharesQueryAndIndexes runs one *Query on shared
// documents and indexes from several goroutines, as the engine does:
// join-key memos and indexes built on demand are per evaluation, so the
// race detector sees no shared write and every result is the sequential
// one.
func TestConcurrentSnapshotSharesQueryAndIndexes(t *testing.T) {
	d1, u := relation("r", closurePairs(12)), relation("r", closurePairs(12))
	docs := query.Docs{"d1": d1, "u": u, tree.Context: d1.Children[3]}
	ixs := query.Indexes{"d1": pattern.NewIndex(d1), tree.Context: pattern.NewIndex(d1)}
	qs := []*query.Query{
		q(t, `t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}`),
		q(t, `t{a{$x},b{$y}} :- u/r{t{a{$x},b{$z}}}, u/r{t{a{$z},b{$y}}}`),
		q(t, `p{$x,$y} :- context/t{a{$x}}, u/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}`),
	}
	want := make([]string, len(qs))
	for i, qq := range qs {
		f, err := query.SnapshotSince(qq, docs, nil, ixs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = f.CanonicalString()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				for i, qq := range qs {
					f, err := query.SnapshotSince(qq, docs, nil, ixs)
					if err != nil || f.CanonicalString() != want[i] {
						t.Errorf("%s: concurrent result %v, %v; want %s", qq, f, err, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestClosureSelfJoinProbesOncePerKey pins the join-key memo: Example
// 3.2's self-join over the closure of a 20-chain asks the index once for
// the first atom and once per distinct $z (19) for the second — not once
// per partial result (190).
func TestClosureSelfJoinProbesOncePerKey(t *testing.T) {
	d1 := relation("r", closurePairs(20))
	d1.Add(tree.NewFunc("g"), tree.NewFunc("f"))
	ix := pattern.NewIndex(d1)
	f := q(t, `t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}`)
	got, err := query.SnapshotSince(f, query.Docs{"d1": d1}, nil, query.Indexes{"d1": ix})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 19*18/2 {
		t.Fatalf("%d two-hop pairs, want %d", len(got), 19*18/2)
	}
	if h, m := ix.Stats(); h+m != 1+19 {
		t.Fatalf("index asked %d times (%d hits, %d misses), want 1 + 19", h+m, h, m)
	}
}

// TestUnindexedChainJoinAllocatesLinearly pins the index built on demand:
// E3's self-join over an unindexed chain probes one candidate per key
// instead of walking the whole chain per key, so quadrupling the chain
// about quadruples the allocations (the walk made it ×16). It also pins
// the rows: a bound variable or a join costs a slot copy from the
// evaluation's slab, not a map, so a tuple costs about 22 allocations
// (index, match, instantiation and reduction included; a map per bind
// made it 56).
func TestUnindexedChainJoinAllocatesLinearly(t *testing.T) {
	qq := q(t, `pair{$x,$y} :- d/r{t{a{$x},b{$z}}}, d/r{t{a{$z},b{$y}}}`)
	allocs := func(n int) float64 {
		docs := query.Docs{"d": relation("r", chainPairs(n))}
		return testing.AllocsPerRun(2, func() {
			if ans, err := query.Snapshot(qq, docs); err != nil || len(ans) != n-1 {
				t.Fatalf("chain %d: %d answers, %v", n, len(ans), err)
			}
		})
	}
	small, large := allocs(128), allocs(512)
	if large > 4.5*small {
		t.Fatalf("allocations grew %.0f → %.0f (×%.1f) for a 4× longer chain; want about ×4", small, large, large/small)
	}
	if perTuple := large / 512; perTuple > 32 {
		t.Fatalf("%.1f allocations per tuple of a 512-chain, want at most 32", perTuple)
	}
}

// TestClosureSelfJoinAllocations is the tc-fixpoint workload's snapshot:
// Example 3.2's self-join over the closure of a 20-chain through its index,
// 171 answers. Partial results are slab rows and join keys are hashed from
// slots, so the whole evaluation stays under 6000 allocations (about 4300;
// a map per bound variable and per join took about 12800).
func TestClosureSelfJoinAllocations(t *testing.T) {
	d1 := relation("r", closurePairs(20))
	docs, ixs := query.Docs{"d1": d1}, query.Indexes{"d1": pattern.NewIndex(d1)}
	f := q(t, `t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}`)
	allocs := testing.AllocsPerRun(5, func() {
		if ans, err := query.SnapshotSince(f, docs, nil, ixs); err != nil || len(ans) != 171 {
			t.Fatalf("%d answers, %v; want 171", len(ans), err)
		}
	})
	if allocs > 6000 {
		t.Fatalf("%.0f allocations for the closure self-join, want at most 6000", allocs)
	}
}

// TestMissingDocumentEndsJoinFirst pins that an atom over a document the
// binding lacks ends the join before any other atom is matched: the
// indexed atom is never asked (it used to be matched first, because the
// missing document ranks last in the join order).
func TestMissingDocumentEndsJoinFirst(t *testing.T) {
	d1 := relation("r", closurePairs(6))
	ix := pattern.NewIndex(d1)
	f := q(t, `t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$y}}}, missing/r{t{a{$y}}}`)
	got, err := query.SnapshotSince(f, query.Docs{"d1": d1}, nil, query.Indexes{"d1": ix})
	if err != nil || len(got) != 0 {
		t.Fatalf("answers %v, %v; want none", got, err)
	}
	if h, m := ix.Stats(); h+m != 0 {
		t.Fatalf("index asked %d times (%d hits, %d misses), want 0", h+m, h, m)
	}
}

// TestOrderAtomsContextFirst pins the join order on a succ-shaped service
// (a one-node context against a document-wide edge list): the context
// atom's candidates (the names) are fewer than the edge atom's, so it is
// joined first and the edges are probed under a bound $x.
func TestOrderAtomsContextFirst(t *testing.T) {
	portal, edges := tree.NewLabel("p"), tree.NewLabel("g")
	for i := 0; i < 96; i++ {
		portal.Add(tree.NewLabel("node", tree.NewLabel("name", tree.NewValue(fmt.Sprint("n", i))), tree.NewFunc("succ")))
		for _, j := range []int{(i + 1) % 96, (i + 7) % 96} {
			edges.Add(tree.NewLabel("e", tree.NewLabel("from", tree.NewValue(fmt.Sprint("n", i))), tree.NewLabel("to", tree.NewValue(fmt.Sprint("n", j)))))
		}
	}
	succ := q(t, `next{$y} :- context/node{name{$x}}, edges/g{e{from{$x},to{$y}}}`)
	ixs := query.Indexes{tree.Context: pattern.NewIndex(portal), "edges": pattern.NewIndex(edges)}
	if first := query.OrderAtoms(succ, ixs)[0]; first.Doc != tree.Context {
		t.Fatalf("joined %s first, want the context atom", first)
	}
}

// TestOrderAtomsUncoveredContextFirst is the served shape of the same
// service: the envelope's one-node context has no index at all, the edges
// document has one. The context atom ranks by its two children, not last,
// so the edges are still probed under a bound $x.
func TestOrderAtomsUncoveredContextFirst(t *testing.T) {
	edges := tree.NewLabel("g")
	for i := 0; i < 96; i++ {
		for _, j := range []int{(i + 1) % 96, (i + 7) % 96} {
			edges.Add(tree.NewLabel("e", tree.NewLabel("from", tree.NewValue(fmt.Sprint("n", i))), tree.NewLabel("to", tree.NewValue(fmt.Sprint("n", j)))))
		}
	}
	node := tree.NewLabel("node", tree.NewLabel("name", tree.NewValue("n3")), tree.NewFunc("succ"))
	succ := q(t, `next{$y} :- context/node{name{$x}}, edges/g{e{from{$x},to{$y}}}`)
	docs := query.Docs{tree.Context: node, "edges": edges}
	ixs := query.Indexes{"edges": pattern.NewIndex(edges)}
	if first := query.OrderAtomsOver(succ, docs, ixs)[0]; first.Doc != tree.Context {
		t.Fatalf("joined %s first, want the context atom", first)
	}
	ans, err := query.SnapshotSince(succ, docs, nil, ixs)
	if err != nil || len(ans) != 2 {
		t.Fatalf("answers %v, %v; want the two successors of n3", ans, err)
	}
}

// TestIneqCheckedWhenBound pins the inequality push-down: an inequality is
// checked as soon as the atoms joined so far bind both its sides, so one
// that rejects every row of the first atom ends the join there. Over a
// star from n0, $x != "n0" leaves the first atom no row, and the index is
// asked once: checked after the join, it was asked once more per
// distinct $z (6).
func TestIneqCheckedWhenBound(t *testing.T) {
	var star [][2]string
	for i := 1; i <= 6; i++ {
		star = append(star, [2]string{"n0", fmt.Sprint("n", i)})
	}
	d1 := relation("r", star)
	ix := pattern.NewIndex(d1)
	f := q(t, `t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}, $x != "n0"`)
	got, err := query.SnapshotSince(f, query.Docs{"d1": d1}, nil, query.Indexes{"d1": ix})
	if err != nil || len(got) != 0 {
		t.Fatalf("answers %v, %v; want none", got, err)
	}
	if h, m := ix.Stats(); h+m != 1 {
		t.Fatalf("index asked %d times (%d hits, %d misses), want 1: the first atom only", h+m, h, m)
	}
}
