package pathexpr

import (
	"fmt"
	"math/rand"
	"testing"

	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/tree"
)

// TestRSnapshotMatchesQuery pins Snapshot's plain-node matching to the
// query evaluator: on a path-free query (FromPattern of every body
// pattern) the two evaluate the same body language, so they must return
// the same forest. The random queries repeat variables within and across
// atoms, put tree variables in heads, filter by inequalities and
// sometimes read a document the binding lacks.
func TestRSnapshotMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	answered := 0
	for trial := 0; trial < 400; trial++ {
		if checkRSnapshot(t, rng, fmt.Sprint("trial ", trial)) {
			answered++
		}
	}
	if answered < 100 {
		t.Fatalf("only %d of 400 random queries had answers", answered)
	}
	t.Logf("%d of 400 random queries had answers", answered)
}

// FuzzRSnapshotMatchesQuery is TestRSnapshotMatchesQuery's property for the
// documents and query a seed draws.
func FuzzRSnapshotMatchesQuery(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkRSnapshot(t, rand.New(rand.NewSource(seed)), fmt.Sprint("seed ", seed))
	})
}

// checkRSnapshot draws two documents and a path-free query over them and
// checks Snapshot against query.Snapshot, reporting whether there were
// answers.
func checkRSnapshot(t *testing.T, rng *rand.Rand, trial string) bool {
	t.Helper()
	docs := query.Docs{"d": randomDoc(rng, 3), "e": randomDoc(rng, 3)}
	q := randomPlainQuery(rng, docs)
	if err := q.Validate(); err != nil {
		t.Fatalf("%s: generated %s: %v", trial, q, err)
	}
	rq := &RQuery{Name: q.Name, Head: q.Head, Ineqs: q.Ineqs}
	for _, a := range q.Body {
		rq.Body = append(rq.Body, RAtom{Doc: a.Doc, Pattern: FromPattern(a.Pattern)})
	}
	want, err := query.Snapshot(q, docs)
	if err != nil {
		t.Fatalf("%s: query.Snapshot(%s): %v", trial, q, err)
	}
	got, err := Snapshot(rq, docs)
	if err != nil {
		t.Fatalf("%s: Snapshot(%s): %v", trial, rq, err)
	}
	if g, w := got.CanonicalString(), want.CanonicalString(); g != w {
		t.Fatalf("%s: %s over d=%s e=%s\ngot  %s\nwant %s", trial, q, docs["d"], docs["e"], g, w)
	}
	return len(want) > 0
}

// randomDoc is r{…} over labels a, b, c, values "1", "2" and calls to f,
// depth levels deep.
func randomDoc(rng *rand.Rand, depth int) *tree.Node {
	var grow func(n *tree.Node, depth int) *tree.Node
	grow = func(n *tree.Node, depth int) *tree.Node {
		for i := rng.Intn(4); i > 0; i-- {
			switch {
			case depth == 0 || rng.Intn(3) == 0:
				n.Add(tree.NewValue(fmt.Sprint(1 + rng.Intn(2))))
			case rng.Intn(5) == 0:
				n.Add(grow(tree.NewFunc("f"), depth-1))
			default:
				n.Add(grow(tree.NewLabel(string(rune('a'+rng.Intn(3)))), depth-1))
			}
		}
		return n
	}
	return grow(tree.NewLabel("r"), depth)
}

// randomPlainQuery draws a query over docs: one to three atoms whose
// patterns follow random paths of their documents, each node a constant
// or a variable from a pool of two per kind (so variables repeat within
// and across atoms), at most one tree variable in the body, a head over
// some body variables, up to two inequalities, and sometimes an atom over
// a document docs lacks.
func randomPlainQuery(rng *rand.Rand, docs query.Docs) *query.Query {
	q := &query.Query{Name: "q"}
	seen := map[string]pattern.Kind{}
	var vars []*pattern.Node
	use := func(p *pattern.Node) *pattern.Node {
		if _, ok := seen[p.Name]; !ok {
			seen[p.Name] = p.Kind
			vars = append(vars, p)
		}
		return p
	}
	var gen func(n *tree.Node, depth int) *pattern.Node
	gen = func(n *tree.Node, depth int) *pattern.Node {
		var p *pattern.Node
		switch r := rng.Intn(10); {
		case depth > 0 && r == 0 && seen["T"] != pattern.VarTree:
			return use(pattern.TVar("T"))
		case r < 5 || depth == 0:
			p = pattern.FromTree(&tree.Node{Kind: n.Kind, Name: n.Name})
		case n.Kind == tree.Value:
			return use(pattern.VVar(fmt.Sprint("v", rng.Intn(2))))
		case n.Kind == tree.Func:
			p = use(pattern.FVar("g"))
		default:
			p = use(pattern.LVar(fmt.Sprint("l", rng.Intn(2))))
		}
		for i := rng.Intn(3); i > 0 && len(n.Children) > 0 && depth < 3; i-- {
			p.Children = append(p.Children, gen(n.Children[rng.Intn(len(n.Children))], depth+1))
		}
		return p
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		doc := []string{"d", "e"}[rng.Intn(2)]
		q.Body = append(q.Body, query.Atom{Doc: doc, Pattern: gen(docs[doc], 0)})
	}
	if rng.Intn(8) == 0 {
		at := rng.Intn(len(q.Body) + 1)
		q.Body = append(q.Body[:at], append([]query.Atom{{Doc: "nowhere", Pattern: pattern.Label("r")}}, q.Body[at:]...)...)
	}
	q.Head = pattern.Label("out")
	for _, v := range vars {
		if rng.Intn(2) == 0 || v.Kind == pattern.VarTree {
			q.Head.Children = append(q.Head.Children, &pattern.Node{Kind: v.Kind, Name: v.Name})
		}
	}
	var atoms []string
	for _, v := range vars {
		if v.Kind != pattern.VarTree {
			atoms = append(atoms, v.Name)
		}
	}
	for i := rng.Intn(3); i > 0 && len(atoms) > 0; i-- {
		right := query.Constant(fmt.Sprint(1 + rng.Intn(2)))
		if rng.Intn(2) == 0 {
			right = query.Variable(atoms[rng.Intn(len(atoms))])
		}
		q.Ineqs = append(q.Ineqs, query.Ineq{Left: query.Variable(atoms[rng.Intn(len(atoms))]), Right: right})
	}
	return q
}

// TestChildrenStepDedups pins the dedup after each pattern child of the
// children step: r{a,a,a} over 32 a children binds nothing, so it has one
// row. Without the dedup every pattern child multiplies the rows by 32,
// and 32³ duplicates reach the head's dedup — the same answer at a cubic
// cost, which no answer-level test sees.
func TestChildrenStepDedups(t *testing.T) {
	d := tree.NewLabel("r")
	for range 32 {
		d.Add(tree.NewLabel("a"))
	}
	p := FromPattern(pattern.Label("r", pattern.Label("a"), pattern.Label("a"), pattern.Label("a")))
	var v pattern.Vars
	m := &rmatch{vars: &v}
	if rows := m.node(p, d, pattern.NewSlab(&v).Row()); len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
}
