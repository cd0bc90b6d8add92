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
// Snapshot and SnapshotSince are its entry points. It runs over rows
// (pattern.Row, one bound node per numbered variable) through a Plan every
// other body evaluator (pathexpr over NFA paths, regular over vertex
// graphs) also uses, so the definition exists once: Plan.Rows folds the
// atoms left to right, each keyed by the slots it shares with those before
// it, checking each inequality as soon as both its sides are bound;
// Plan.Answers instantiates the head once per distinct projection and
// reduces. With a baseline the fold runs once per semi-naive delta rule
// (see bodyRows).
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
// the body rows with at least one witnessing embedding that touches a
// node stamped after the per-document baseline in since (keyed by atom
// document name, including the reserved "input"/"context"). A document
// name missing from since is treated as all-new (full re-evaluation for
// its atoms), so a nil since is exactly Snapshot. By monotonicity
// (Proposition 3.1), rows whose every witness is old were already
// produced at the baseline, so bodyRows never builds them. ixs only
// accelerates (see Indexes); nil walks every document.
func SnapshotSince(q *Query, docs Docs, since map[string]uint64, ixs Indexes) (tree.Forest, error) {
	pl, rows, err := bodyRows(q, docs, since, ixs)
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	return pl.Answers(rows)
}

// Plan is a body compiled for one evaluation over rows: Vars numbers its
// variables into slots (slot i of every row is variable i) and Head is the
// head compiled against the same numbering; Name labels errors. Every
// evaluator of positive bodies (here, pathexpr over NFA paths, regular
// over vertex graphs) numbers its variables, hands Rows its atoms' slot
// lists in join order and its step, and reads the answers off Answers, so
// the join, the inequality check and the answers exist once.
type Plan struct {
	Name  string
	Vars  pattern.Vars
	Head  *pattern.Compiled
	Ineqs []Ineq
}

// Rows computes the rows satisfying the body and the inequalities. slots
// lists each atom's slots in join order; step(i, k, base) returns the
// distinct extensions of base by atom i, k numbering base's join key for
// the atom — the slots it shares with the atoms joined before it.
func (pl *Plan) Rows(slots [][]int, step func(i, k int, base pattern.Row) []pattern.Row) ([]pattern.Row, error) {
	j, err := pl.join(slots)
	if err != nil {
		return nil, err
	}
	return j.fold(pattern.NewSlab(&pl.Vars).Row(), step), nil
}

// join is a join order made executable: keys[i] lists atom i's join key
// (its slots bound before it), and checks[i] the inequalities complete
// once the first i atoms are joined — checks[0] those over constants.
type join struct {
	vars   *pattern.Vars
	keys   [][]int
	checks [][]Ineq
}

// join compiles the join order slots. An inequality variable that no atom
// binds, or that is bound to a tree, is an error: Validate rules both out,
// so meeting one means an unvalidated query.
func (pl *Plan) join(slots [][]int) (*join, error) {
	j := &join{vars: &pl.Vars, keys: make([][]int, len(slots)), checks: make([][]Ineq, len(slots)+1)}
	at := make([]int, pl.Vars.Len()) // per slot, 1 + the atom binding it first, or 0
	for i, ss := range slots {
		for _, s := range ss { // each once
			if at[s] > 0 {
				j.keys[i] = append(j.keys[i], s)
			} else {
				at[s] = i + 1
			}
		}
	}
	for _, e := range pl.Ineqs {
		when := 0
		for _, t := range [2]Term{e.Left, e.Right} {
			switch i := pl.Vars.Slot(t.Var); {
			case t.Var == "":
			case i < 0 || at[i] == 0:
				return nil, fmt.Errorf("query %s: inequality variable %s unbound", pl.Name, t.Var)
			case pl.Vars.Kind(i) == pattern.VarTree:
				return nil, fmt.Errorf("query %s: inequality variable %s bound to a tree", pl.Name, t.Var)
			default:
				when = max(when, at[i])
			}
		}
		j.checks[when] = append(j.checks[when], e)
	}
	return j, nil
}

// holds reports whether r satisfies the inequalities checks[i] lists.
func (j *join) holds(i int, r pattern.Row) bool {
	val := func(t Term) string {
		if t.Var == "" {
			return t.Const
		}
		return r.Bound(j.vars.Slot(t.Var)).Name
	}
	for _, e := range j.checks[i] {
		if val(e.Left) == val(e.Right) {
			return false
		}
	}
	return true
}

// fold is the left-to-right join of a body of len(keys) atoms: from seed,
// step(i, k, base) extends each row by atom i, fold joins the results with
// their base (Extend) and keeps the joins satisfying the inequalities atom
// i completes, and an atom extending nothing ends the fold. A step
// depends on its base only through atom i's slots bound before it, which
// keys[i] lists, so when several rows reach atom i it runs once per
// distinct binding of those, its join key (k keys ran before), and shares
// the results. Steps return distinct rows, and so does the fold.
func (j *join) fold(seed pattern.Row, step func(i, k int, base pattern.Row) []pattern.Row) []pattern.Row {
	if !j.holds(0, seed) {
		return nil
	}
	cur := []pattern.Row{seed}
	var key []byte
	var seen pattern.KeySet
	var memo [][]pattern.Row
	var ks []int // per row, its key's number
	for i := 0; i < len(j.keys) && len(cur) > 0; i++ {
		memo, ks = memo[:0], ks[:0]
		n := 0
		if len(cur) == 1 { // no key, no memo
			memo, ks = append(memo, step(i, 0, cur[0])), append(ks, 0)
			n = len(memo[0])
		} else {
			seen.Reset()
			for _, base := range cur {
				key = base.AppendKey(key[:0], j.keys[i])
				k, added := seen.Add(key)
				if added {
					memo = append(memo, step(i, k, base))
				}
				ks, n = append(ks, k), n+len(memo[k])
			}
		}
		next := make([]pattern.Row, 0, n)
		for b, base := range cur {
			for _, ext := range memo[ks[b]] {
				if r := base.Extend(ext); j.holds(i+1, r) {
					next = append(next, r)
				}
			}
		}
		cur = next
	}
	return cur
}

// Answers instantiates the head under every row and reduces the forest:
// the last step of every snapshot evaluation, instantiating once per
// distinct projection onto the head's slots. The instantiations are fresh
// trees, so they are reduced in place, as the children of a root that is
// then dropped.
func (pl *Plan) Answers(rows []pattern.Row) (tree.Forest, error) {
	var out tree.Forest
	for _, r := range pl.distinctHeads(rows) {
		t, err := pl.Head.Instantiate(r)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", pl.Name, err)
		}
		out = append(out, t)
	}
	return subsume.ReduceInPlace(&tree.Node{Children: out}).Children, nil
}

// distinctHeads keeps the first row of each distinct projection onto the
// head's slots, in place; when the head keeps every slot the rows are
// distinct already.
func (pl *Plan) distinctHeads(rows []pattern.Row) []pattern.Row {
	hs := pl.Head.Slots()
	if len(rows) < 2 || len(hs) == pl.Vars.Len() {
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

// plan is a query's Plan with its atoms and their compiled patterns in
// join order, and each one's slots; built is an index it made over a tree
// no index covers.
type plan struct {
	Plan
	atoms []Atom
	pats  []*pattern.Compiled
	slots [][]int
	built *pattern.Index
}

func newPlan(q *Query, docs Docs, ixs Indexes) *plan {
	pl := &plan{Plan: Plan{Name: q.Name, Ineqs: q.Ineqs}}
	pats := make([]*pattern.Compiled, len(q.Body))
	for i, a := range q.Body {
		pats[i] = pl.Vars.Compile(a.Pattern)
	}
	pl.Head = pl.Vars.Compile(q.Head)
	pl.order(q, pats, docs, ixs)
	return pl
}

// bodyRows computes the rows satisfying the body and the inequalities
// with a witnessing embedding mapping a pattern node onto a document node
// appended after that atom's baseline in since; an atom whose document
// has no baseline makes all its matches such rows, and a nil since every
// row (the empty body's too). An atom over a missing document ends the
// body before any atom is joined (the plan is then nil). Atoms join in
// greedy selectivity order (see plan.order), each through its document's
// index when ixs has one.
//
// The rows are the semi-naive delta rules' (Prop 3.1): the union over r
// of the rows whose first atom with a fresh witness is atom r. Rule r
// joins atom r first, over its fresh rows (MatchDelta), then the others in
// join order: those before r over their rows with no fresh witness
// (MatchOld), those after r over all theirs. The rules are disjoint. An
// atom without a baseline is all fresh, so no later rule has rows.
func bodyRows(q *Query, docs Docs, since map[string]uint64, ixs Indexes) (*plan, []pattern.Row, error) {
	for _, a := range q.Body {
		if docs[a.Doc] == nil {
			return nil, nil, nil
		}
	}
	pl := newPlan(q, docs, ixs)
	j, err := pl.join(pl.slots)
	if err != nil {
		return nil, nil, err
	}
	seed := pattern.NewSlab(&pl.Vars).Row()
	if len(pl.atoms) == 0 && since == nil {
		return pl, j.fold(seed, nil), nil
	}
	var rows []pattern.Row
	for r, a := range pl.atoms {
		sinceR, known := since[a.Doc]
		order, slots := []int{r}, [][]int{pl.slots[r]} // atom r, then the others
		for i := range pl.atoms {
			if i != r {
				order, slots = append(order, i), append(slots, pl.slots[i])
			}
		}
		if r > 0 {
			j, _ = pl.join(slots) // the inequalities compiled above
		}
		rows = append(rows, j.fold(seed, func(i, k int, base pattern.Row) []pattern.Row {
			at := order[i]
			switch ix, d := pl.source(at, k, docs, ixs); {
			case at == r && known:
				return ix.MatchDelta(pl.pats[at], d, base, sinceR)
			case at < r:
				return ix.MatchOld(pl.pats[at], d, base, since[pl.atoms[at].Doc])
			default:
				return ix.MatchRows(pl.pats[at], d, base, math.MaxUint64)
			}
		})...)
		if !known {
			break // every later rule needs atom r's old rows: it has none
		}
	}
	return pl, rows, nil
}

// source returns the index and the tree atom i matches, k numbering its
// join key: the document's index, or from the atom's second join key on
// one built over a tree no index covers — unless a walk of so few
// children is cheaper (E3's chains break even at 7 tuples).
func (pl *plan) source(i, k int, docs Docs, ixs Indexes) (*pattern.Index, *tree.Node) {
	d, ix := docs[pl.atoms[i].Doc], ixs[pl.atoms[i].Doc]
	if ix.Root() != d {
		if pl.built.Root() != d && k > 0 && len(d.Children) > 8 {
			pl.built = pattern.NewIndex(d)
		}
		if pl.built.Root() == d {
			ix = pl.built
		}
	}
	return ix, d
}

// order joins the body atoms in greedy order: repeatedly pick the
// not-yet-joined atom binding the most slots already bound by the chosen
// prefix, breaking ties by index selectivity (the length of the rarest
// constant's candidate list) and then by original position. An atom over
// a tree no index covers (a call's context, a served envelope) ranks by
// its root's child count instead: an O(1) bound it can observe without a
// walk, where an uncovered atom used to rank last. Bound variables act as
// constants inside the match, so joining them early shrinks the
// intermediate row sets; conjunction is commutative and results are
// deduplicated, so any order yields the same set. Greedy one-step
// lookahead is the janus-datalog observation: with exact candidate counts
// for free, the greedy order is within noise of optimal and costs nothing
// to compute.
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
	bound, used := make([]bool, pl.Vars.Len()), make([]bool, n)
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
		for _, s := range pats[best].Slots() {
			bound[s] = true
		}
		pl.atoms, pl.pats = append(pl.atoms, q.Body[best]), append(pl.pats, pats[best])
		pl.slots = append(pl.slots, pats[best].Slots())
	}
}
