// Package query implements the positive query language of Section 3.1: a
// monotone conjunctive fragment of XQuery. A positive query is a rule
//
//	r :- d1/p1, ..., dn/pn, e1, ..., em
//
// where r and the pi are positive AXML tree patterns over document names
// di, and the ej are inequalities x != y between label, function or value
// variables (never tree variables) or constants.
//
// Definition 3.1 imposes: (2) every head variable occurs in the body;
// (3) no tree variable occurs twice in the body and inequalities never
// involve tree variables. Validate enforces all of it. These restrictions
// are what make the snapshot semantics monotone (Proposition 3.1).
//
// Evaluation is one function of (query, documents, baseline, indexes):
// Snapshot, SnapshotSince and BodyAssignments are its three entry points.
// It is assembled from three helpers every other body evaluator
// (pathexpr over NFA paths, regular over vertex graphs) also uses, so the
// definition exists once: Fold joins the atoms left to right, IneqsHold
// checks the inequalities, Answers instantiates the head and reduces.
package query

import (
	"fmt"
	"math"
	"strings"

	"axml/internal/pattern"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// Atom is one body conjunct d/p: pattern p must embed into the document
// named Doc.
type Atom struct {
	Doc     string
	Pattern *pattern.Node
}

// String renders the atom as "doc/pattern".
func (a Atom) String() string { return a.Doc + "/" + a.Pattern.String() }

// Term is one side of an inequality: either a variable (label, value or
// function variable) or a string constant.
type Term struct {
	// Var is the variable name; empty for constants.
	Var string
	// Const is the constant; used when Var is empty.
	Const string
}

// Variable returns a variable term.
func Variable(name string) Term { return Term{Var: name} }

// Constant returns a constant term.
func Constant(v string) Term { return Term{Const: v} }

// String renders the term; variables keep a leading "?" only when printed
// inside inequalities, so we emit the bare name for variables and quote
// constants.
func (t Term) String() string {
	if t.Var != "" {
		return t.Var
	}
	return fmt.Sprintf("%q", t.Const)
}

// Ineq is an inequality constraint x != y.
type Ineq struct {
	Left, Right Term
}

// String renders the inequality.
func (e Ineq) String() string { return e.Left.String() + " != " + e.Right.String() }

// Query is a positive query: Head :- Body, Ineqs.
type Query struct {
	// Name optionally names the query (the function name of the service
	// it defines, or a label for diagnostics).
	Name  string
	Head  *pattern.Node
	Body  []Atom
	Ineqs []Ineq
}

// String renders the query as "head :- atom, ..., x != y, ..." in the
// concrete syntax ParseQuery accepts (inequality variables carry the
// sigil of their kind, resolved from the body).
func (q *Query) String() string {
	kinds := map[string]pattern.Kind{}
	for _, a := range q.Body {
		_ = a.Pattern.Vars(kinds) // best effort; String never fails
	}
	var b strings.Builder
	b.WriteString(q.Head.String())
	b.WriteString(" :- ")
	parts := make([]string, 0, len(q.Body)+len(q.Ineqs))
	for _, a := range q.Body {
		parts = append(parts, a.String())
	}
	renderTerm := func(t Term) string {
		if t.Var == "" {
			return fmt.Sprintf("%q", t.Const)
		}
		if k, ok := kinds[t.Var]; ok && k.Sigil() != 0 {
			return string(k.Sigil()) + t.Var
		}
		return "$" + t.Var
	}
	for _, e := range q.Ineqs {
		parts = append(parts, renderTerm(e.Left)+" != "+renderTerm(e.Right))
	}
	b.WriteString(strings.Join(parts, ", "))
	return b.String()
}

// IsSimple reports whether the query uses no tree variables anywhere
// (Definition 3.1: a simple query).
func (q *Query) IsSimple() bool {
	if !q.Head.IsSimple() {
		return false
	}
	for _, a := range q.Body {
		if !a.Pattern.IsSimple() {
			return false
		}
	}
	return true
}

// DocNames returns the distinct document names used in the body, in first-
// occurrence order.
func (q *Query) DocNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range q.Body {
		if !seen[a.Doc] {
			seen[a.Doc] = true
			out = append(out, a.Doc)
		}
	}
	return out
}

// UsesInput and UsesContext report whether the body reads the reserved
// documents.
func (q *Query) UsesInput() bool { return q.usesDoc(tree.Input) }

// UsesContext reports whether the body reads the context document.
func (q *Query) UsesContext() bool { return q.usesDoc(tree.Context) }

func (q *Query) usesDoc(name string) bool {
	for _, a := range q.Body {
		if a.Doc == name {
			return true
		}
	}
	return false
}

// Validate enforces Definition 3.1. It returns a descriptive error for the
// first violation found.
func (q *Query) Validate() error {
	if q.Head == nil {
		return fmt.Errorf("query %s: nil head", q.Name)
	}
	if err := q.Head.Validate(); err != nil {
		return fmt.Errorf("query %s: head: %w", q.Name, err)
	}
	bodyVars := map[string]pattern.Kind{}
	treeVarCount := map[string]int{}
	for _, a := range q.Body {
		if a.Pattern == nil {
			return fmt.Errorf("query %s: nil pattern for document %q", q.Name, a.Doc)
		}
		if err := a.Pattern.Validate(); err != nil {
			return fmt.Errorf("query %s: body %s: %w", q.Name, a.Doc, err)
		}
		if err := a.Pattern.Vars(bodyVars); err != nil {
			return fmt.Errorf("query %s: body: %w", q.Name, err)
		}
		countTreeVarOccurrences(a.Pattern, treeVarCount)
	}
	for v, n := range treeVarCount {
		if n > 1 {
			return fmt.Errorf("query %s: tree variable #%s occurs %d times in the body; at most once is allowed", q.Name, v, n)
		}
	}
	headVars := map[string]pattern.Kind{}
	if err := q.Head.Vars(headVars); err != nil {
		return fmt.Errorf("query %s: head: %w", q.Name, err)
	}
	for v, k := range headVars {
		bk, ok := bodyVars[v]
		if !ok {
			return fmt.Errorf("query %s: head variable %c%s does not occur in the body (unsafe)", q.Name, k.Sigil(), v)
		}
		if bk != k {
			return fmt.Errorf("query %s: variable %s is %s in the head but %s in the body", q.Name, v, k, bk)
		}
	}
	for _, e := range q.Ineqs {
		for _, t := range []Term{e.Left, e.Right} {
			if t.Var == "" {
				continue
			}
			k, ok := bodyVars[t.Var]
			if !ok {
				return fmt.Errorf("query %s: inequality uses variable %s not bound in the body", q.Name, t.Var)
			}
			if k == pattern.VarTree {
				return fmt.Errorf("query %s: inequality on tree variable #%s is not allowed", q.Name, t.Var)
			}
		}
	}
	return nil
}

func countTreeVarOccurrences(p *pattern.Node, dst map[string]int) {
	if p == nil {
		return
	}
	if p.Kind == pattern.VarTree {
		dst[p.Name]++
	}
	for _, c := range p.Children {
		countTreeVarOccurrences(c, dst)
	}
}

// Docs gives a meaning θ to document names: it maps each name to a tree.
// Missing names simply yield no matches for their atoms.
type Docs map[string]*tree.Node

// Indexes optionally maps document names to inverted indexes accelerating
// their atoms (see pattern.Index). The reserved "context" name may map to
// the index of the document that owns the bound subtree: the index
// accelerates the match exactly when the context is the whole document
// (a root-level call) and degrades to the walk otherwise. A nil map, a
// missing entry or a nil index all degrade to the tree walk.
type Indexes map[string]*pattern.Index

// Snapshot evaluates the query on the given document binding without
// invoking any service call: the snapshot result q(I) of Section 3.1. The
// returned forest consists of freshly allocated, reduced trees with no
// tree subsumed by another.
func Snapshot(q *Query, docs Docs) (tree.Forest, error) {
	return SnapshotSince(q, docs, nil, nil)
}

// SnapshotSince is Snapshot restricted to the delta: it instantiates only
// the body assignments with at least one witnessing embedding that
// touches a node stamped after the per-document baseline in since (keyed
// by atom document name, including the reserved "input"/"context"). A
// document name missing from since is treated as all-new (full
// re-evaluation for its atoms), so a nil since is exactly Snapshot. By
// monotonicity (Proposition 3.1), assignments whose every witness is old
// were already produced at the baseline, so skipping them loses nothing.
// ixs only accelerates (see Indexes); nil walks every document.
func SnapshotSince(q *Query, docs Docs, since map[string]uint64, ixs Indexes) (tree.Forest, error) {
	pl, rows, err := bodyRows(q, docs, since, ixs)
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	fresh := rows[:0]
	for _, r := range rows {
		if r.New {
			fresh = append(fresh, r)
		}
	}
	return pl.answers(q.Name, fresh)
}

// BodyAssignments computes every assignment satisfying the body and the
// inequalities, restricted to the variables, deduplicated.
func BodyAssignments(q *Query, docs Docs) ([]pattern.Assignment, error) {
	_, rows, err := bodyRows(q, docs, nil, nil)
	var out []pattern.Assignment
	for _, r := range rows {
		out = append(out, r.Assignment(nil))
	}
	return out, err
}

// Partial is a partial result of Fold keyed by K: AppendKey encodes the
// bindings a key names injectively, Extend joins it with a step result for
// an agreeing base. Rows are keyed by slot lists, the name-keyed
// assignments pathexpr and regular fold by name lists.
type Partial[A, K any] interface {
	AppendKey(buf []byte, key K) []byte
	Extend(ext A) A
}

// Fold is the left-to-right join of a body of len(keys) atoms: from seed,
// step(i, k, base) extends each partial result by atom i, Fold joins the
// results with their base (Extend), and an atom extending nothing ends the
// fold. A step depends on its base only through atom i's variables bound
// before it, which keys[i] names, so when several partial results reach
// atom i it runs once per distinct binding of those, its join key (k keys
// ran before), and shares the results. Steps return distinct results, and
// so does the fold. Every evaluator of positive bodies (here, pathexpr,
// regular) is this fold.
func Fold[A Partial[A, K], K any](seed A, keys []K, step func(i, k int, base A) []A) []A {
	cur := []A{seed}
	var key []byte
	var seen pattern.KeySet
	var memo [][]A
	var ks []int // per partial result, its key's number
	for i := 0; i < len(keys) && len(cur) > 0; i++ {
		if len(cur) == 1 { // no key, no memo
			base := cur[0]
			cur = step(i, 0, base)
			for j := range cur {
				cur[j] = base.Extend(cur[j])
			}
			continue
		}
		seen.Reset()
		memo, ks = memo[:0], ks[:0]
		n := 0
		for _, base := range cur {
			key = base.AppendKey(key[:0], keys[i])
			k, added := seen.Add(key)
			if added {
				memo = append(memo, step(i, k, base))
			}
			ks, n = append(ks, k), n+len(memo[k])
		}
		next := make([]A, 0, n)
		for j, base := range cur {
			for _, ext := range memo[ks[j]] {
				next = append(next, base.Extend(ext))
			}
		}
		cur = next
	}
	return cur
}

// NameKeys is Fold's keys for partial results keyed by name: every
// variable name of each of n atoms, which vars collects.
func NameKeys(n int, vars func(i int, dst map[string]pattern.Kind) error) [][]string {
	keys := make([][]string, n)
	for i := range keys {
		own := map[string]pattern.Kind{}
		_ = vars(i, own) // a kind conflict still collects every name
		for v := range own {
			keys[i] = append(keys[i], v)
		}
	}
	return keys
}

// IneqsHold reports whether asn satisfies every inequality. A variable
// that is unbound or bound to a tree is an error, not a mismatch:
// Validate rules both out, so meeting one means an unvalidated query.
func IneqsHold(ineqs []Ineq, asn pattern.Assignment) (bool, error) {
	pl := &plan{ineqs: ineqs}
	return pl.ineqsHold(pl.rowsOf(asn)[0])
}

// Answers instantiates head under every assignment and reduces the
// forest: the last step of every snapshot evaluation, instantiating once
// per distinct projection onto the head's variables. name labels errors.
func Answers(name string, head *pattern.Node, asns []pattern.Assignment) (tree.Forest, error) {
	pl := &plan{}
	pl.head = pl.vars.Compile(head)
	return pl.answers(name, pl.rowsOf(asns...))
}

// plan is a query compiled for one evaluation: its variables numbered
// once (slot i of every row is variable i), each atom's pattern compiled
// against them in join order, and per joined atom its join key — the
// slots it shares with the atoms joined before it.
type plan struct {
	vars  pattern.Vars
	atoms []Atom
	pats  []*pattern.Compiled
	keys  [][]int
	head  *pattern.Compiled
	ineqs []Ineq
}

func newPlan(q *Query, docs Docs, ixs Indexes) *plan {
	pl := &plan{}
	pats := make([]*pattern.Compiled, len(q.Body))
	for i, a := range q.Body {
		pats[i] = pl.vars.Compile(a.Pattern)
	}
	pl.head, pl.ineqs = pl.vars.Compile(q.Head), q.Ineqs
	pl.order(q, pats, docs, ixs)
	return pl
}

// rowsOf is the boundary for name-keyed assignments (IneqsHold and
// Answers on pathexpr's and regular's folds): it numbers the names the
// first one binds, with their bindings' kinds, and converts each to a row.
func (pl *plan) rowsOf(asns ...pattern.Assignment) []pattern.Row {
	for _, a := range asns[:min(len(asns), 1)] {
		for name, b := range a {
			kind := pattern.VarValue
			if b.Tree != nil {
				kind = pattern.VarTree
			}
			pl.vars.Number(name, kind)
		}
	}
	slab := pattern.NewSlab(&pl.vars)
	rows := make([]pattern.Row, len(asns))
	for i, a := range asns {
		rows[i], _ = slab.RowOf(a)
	}
	return rows
}

// ineqsHold is IneqsHold on a row.
func (pl *plan) ineqsHold(r pattern.Row) (bool, error) {
	val := func(t Term) (string, error) {
		if t.Var == "" {
			return t.Const, nil
		}
		switch i := pl.vars.Slot(t.Var); {
		case i < 0 || r.Bound(i) == nil:
			return "", fmt.Errorf("inequality variable %s unbound", t.Var)
		case pl.vars.Kind(i) == pattern.VarTree:
			return "", fmt.Errorf("inequality variable %s bound to a tree", t.Var)
		default:
			return r.Bound(i).Name, nil
		}
	}
	for _, e := range pl.ineqs {
		l, err := val(e.Left)
		if err != nil {
			return false, err
		}
		r, err := val(e.Right)
		if err != nil {
			return false, err
		}
		if l == r {
			return false, nil
		}
	}
	return true, nil
}

// answers is Answers on rows. The instantiations are fresh trees, so they are reduced in place, as the
// children of a root that is then dropped.
func (pl *plan) answers(name string, rows []pattern.Row) (tree.Forest, error) {
	var out tree.Forest
	for _, r := range pl.distinctHeads(rows) {
		t, err := pl.head.Instantiate(r)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", name, err)
		}
		out = append(out, t)
	}
	return subsume.ReduceInPlace(&tree.Node{Children: out}).Children, nil
}

// distinctHeads keeps the first row of each distinct projection onto the
// head's slots, in place; when the head keeps every slot the rows are
// distinct already.
func (pl *plan) distinctHeads(rows []pattern.Row) []pattern.Row {
	hs := pl.head.Slots()
	if len(rows) < 2 || len(hs) == pl.vars.Len() {
		return rows
	}
	var seen pattern.KeySet
	var key []byte
	out := rows[:0]
	for _, r := range rows {
		key = r.AppendKey(key[:0], hs)
		if _, added := seen.Add(key); added {
			out = append(out, r)
		}
	}
	return out
}

// bodyRows computes the rows satisfying the body and the inequalities,
// each flagged New when some witnessing embedding maps a pattern node onto
// a document node appended after that atom's baseline in since. An atom
// whose document has no baseline makes all its matches new; with a nil
// since that is every atom (and the empty body), so every row comes back
// New. An atom over a missing document matches nothing, so the body is
// empty before any atom is joined (the plan is then nil). Atoms are
// joined in greedy selectivity order (see plan.order), each through its
// document's index when ixs has one.
func bodyRows(q *Query, docs Docs, since map[string]uint64, ixs Indexes) (*plan, []pattern.Row, error) {
	for _, a := range q.Body {
		if docs[a.Doc] == nil {
			return nil, nil, nil
		}
	}
	pl := newPlan(q, docs, ixs)
	var built *pattern.Index // over a tree no index in ixs covers
	seed := pattern.NewSlab(&pl.vars).Row()
	seed.New = since == nil
	rows := Fold(seed, pl.keys, func(i, k int, base pattern.Row) []pattern.Row {
		a, d := pl.atoms[i], docs[pl.atoms[i].Doc]
		sinceV, known := since[a.Doc]
		if !known {
			sinceV = math.MaxUint64 // nothing to track: all new below
		}
		ix := ixs[a.Doc]
		if ix.Root() != d {
			// From its second join key on, an atom walking a tree no index
			// covers indexes it — unless a walk of so few children is
			// cheaper (E3's chains break even at 7 tuples).
			if built.Root() != d && k > 0 && len(d.Children) > 8 {
				built = pattern.NewIndex(d)
			}
			if built.Root() == d {
				ix = built
			}
		}
		ms := ix.MatchRows(pl.pats[i], d, base, sinceV)
		for j := range ms {
			ms[j].New = ms[j].New || !known
		}
		return ms
	})
	out := rows[:0]
	for _, r := range rows {
		ok, err := pl.ineqsHold(r)
		if err != nil {
			return nil, nil, fmt.Errorf("query %s: %w", q.Name, err)
		}
		if ok {
			out = append(out, r)
		}
	}
	return pl, out, nil
}

// order joins the body atoms in greedy order, recording each one's join
// key: repeatedly pick the not-yet-joined atom binding the most slots
// already bound by the chosen prefix, breaking ties by index selectivity
// (the length of the rarest constant's candidate list) and then by
// original position. An atom over a tree no index covers (a call's
// context, a served envelope) ranks by its root's child count instead: an
// O(1) bound it can observe without a walk, where an uncovered atom used
// to rank last. Bound variables act as constants inside the match, so
// joining them early shrinks the intermediate row sets; conjunction is
// commutative and results are deduplicated, so any order yields the same
// set. Greedy one-step lookahead is the janus-datalog observation: with
// exact candidate counts for free, the greedy order is within noise of
// optimal and costs nothing to compute.
func (pl *plan) order(q *Query, pats []*pattern.Compiled, docs Docs, ixs Indexes) {
	n := len(q.Body)
	sel := make([]int, n)
	for i, a := range q.Body {
		if d, ix := docs[a.Doc], ixs[a.Doc]; n == 1 {
			break
		} else if d != nil && ix.Root() != d {
			sel[i] = len(d.Children)
		} else {
			sel[i] = ix.Selectivity(pats[i])
		}
	}
	bound, used := make([]bool, pl.vars.Len()), make([]bool, n)
	for range n {
		best, bestBound := -1, -1
		for i := range q.Body {
			if used[i] {
				continue
			}
			nb := 0
			for _, s := range pats[i].Slots() {
				if bound[s] {
					nb++
				}
			}
			if best < 0 || nb > bestBound || (nb == bestBound && sel[i] < sel[best]) {
				best, bestBound = i, nb
			}
		}
		used[best] = true
		var key []int
		for _, s := range pats[best].Slots() {
			if bound[s] {
				key = append(key, s)
			}
			bound[s] = true
		}
		pl.atoms, pl.pats, pl.keys = append(pl.atoms, q.Body[best]), append(pl.pats, pats[best]), append(pl.keys, key)
	}
}
