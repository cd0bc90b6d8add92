// Package regular computes a finite graph representation of the (possibly
// infinite) semantics of simple positive AXML systems, following Lemma 3.2
// of the paper, and uses it to decide termination (Theorem 3.3),
// q-finiteness (Proposition 3.2) and the lazy-evaluation properties of
// Section 4 for simple systems.
//
// The crux of Lemma 3.2: in a simple positive system, every subtree of the
// semantics is either an original subtree of I or the instantiation µ(r)
// of some service head under an assignment µ of label/value/function
// variables; identical instantiations have equivalent expansions wherever
// they occur, so the (finitely many) instantiations can be shared. The
// graph has one vertex per original document node plus one shared vertex
// per (service, assignment) instantiation node; invocation results attach
// as extra child edges of the call's parent vertex. Sharing introduces
// cycles exactly when the semantics is an infinite (regular) tree.
package regular

import (
	"fmt"
	"sort"
	"strings"

	"axml/internal/core"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// Vertex is a node of the regular-tree graph. Children edges may form
// cycles; the represented (possibly infinite) tree is the unfolding.
type Vertex struct {
	// ID is a stable identifier, unique within one Graph.
	ID int
	// Kind and Name mirror tree.Node markings.
	Kind tree.Kind
	Name string
	// Children are the child edges, in attachment order.
	Children []*Vertex
	// Origin is the original document node this vertex was converted
	// from, or nil for instantiation vertices.
	Origin *tree.Node
	// mark is a node carrying the vertex's marking: what an atom variable
	// matched at the vertex binds in a row.
	mark *tree.Node
}

// Graph is the finite representation of a simple positive system's
// semantics.
type Graph struct {
	// Roots maps document names to their root vertices.
	Roots map[string]*Vertex
	// DocNames preserves the system's document order.
	DocNames []string

	nextID int
	// inst memoizes the shared instantiation vertex per (service,
	// assignment) and head position.
	inst map[string]*Vertex
	// attached memoizes attachments per (parent ID, instantiation key).
	attached map[attachKey]bool
	// frozen holds original function nodes excluded from invocation
	// (the ↓N construction of Section 4).
	frozen map[*tree.Node]bool
	// Stats
	Invocations int
	Attachments int
}

type attachKey struct {
	parent int
	inst   string
}

// BuildOptions configures Build.
type BuildOptions struct {
	// Exclude lists original function nodes whose calls are never
	// invoked: Build then represents [I↓N] instead of [I].
	Exclude map[*tree.Node]bool
	// MaxInstantiations aborts the construction if more than this many
	// distinct instantiation vertices are created (the construction is
	// exponential in the worst case, Lemma 3.2). 0 means DefaultMaxInst.
	MaxInstantiations int
}

// DefaultMaxInst bounds graph constructions whose options leave
// MaxInstantiations at zero.
const DefaultMaxInst = 200000

// Build computes the graph representation of the semantics of a simple
// positive system. The system is not modified. It fails on systems that
// are not simple positive (Lemma 3.2 does not apply: Example 3.3 has a
// non-regular semantics).
func Build(s *core.System, opts BuildOptions) (*Graph, error) {
	if !s.IsPositive() {
		return nil, fmt.Errorf("regular: system has black-box services; graph representation needs declarative definitions")
	}
	if !s.IsSimple() {
		return nil, fmt.Errorf("regular: system is not simple (tree variables present); its semantics may be non-regular")
	}
	maxInst := opts.MaxInstantiations
	if maxInst == 0 {
		maxInst = DefaultMaxInst
	}
	g := &Graph{
		Roots:    map[string]*Vertex{},
		inst:     map[string]*Vertex{},
		attached: map[attachKey]bool{},
		frozen:   opts.Exclude,
	}
	for _, name := range s.DocNames() {
		g.DocNames = append(g.DocNames, name)
		g.Roots[name] = g.fromTree(s.Document(name).Root)
	}
	// Saturate: repeatedly evaluate every reachable call edge until no
	// new attachment happens. The loop terminates because vertices and
	// instantiation keys are finite (or the instantiation bound trips).
	for {
		changed, err := g.saturateOnce(s)
		if err != nil {
			return nil, err
		}
		if len(g.inst) > maxInst {
			return nil, fmt.Errorf("regular: more than %d instantiations; raise BuildOptions.MaxInstantiations", maxInst)
		}
		if !changed {
			return g, nil
		}
	}
}

func (g *Graph) newVertex(kind tree.Kind, name string, origin *tree.Node) *Vertex {
	v := &Vertex{ID: g.nextID, Kind: kind, Name: name, Origin: origin, mark: &tree.Node{Kind: kind, Name: name}}
	g.nextID++
	return v
}

func (g *Graph) fromTree(n *tree.Node) *Vertex {
	v := g.newVertex(n.Kind, n.Name, n)
	for _, c := range n.Children {
		v.Children = append(v.Children, g.fromTree(c))
	}
	return v
}

// callEdge is one invocable occurrence: a function vertex under a parent.
type callEdge struct {
	parent *Vertex
	fn     *Vertex
}

func (g *Graph) reachableCallEdges() []callEdge {
	var edges []callEdge
	seen := map[int]bool{}
	var visit func(v *Vertex)
	visit = func(v *Vertex) {
		if seen[v.ID] {
			return
		}
		seen[v.ID] = true
		for _, c := range v.Children {
			if c.Kind == tree.Func && !(c.Origin != nil && g.frozen[c.Origin]) {
				edges = append(edges, callEdge{parent: v, fn: c})
			}
			visit(c)
		}
	}
	for _, name := range g.DocNames {
		visit(g.Roots[name])
	}
	return edges
}

// saturateOnce evaluates every reachable call edge once and attaches new
// instantiations, reporting whether anything changed.
func (g *Graph) saturateOnce(s *core.System) (bool, error) {
	changed := false
	for _, e := range g.reachableCallEdges() {
		svc := s.Declarative(e.fn.Name)
		if svc == nil {
			return false, fmt.Errorf("regular: call to unknown or non-positive service %q", e.fn.Name)
		}
		ev, rows, err := g.evalBody(svc.Query, e)
		if err != nil {
			return false, err
		}
		for _, r := range rows {
			did, err := g.attach(e, svc.Query, ev, r)
			if err != nil {
				return false, err
			}
			changed = changed || did
		}
		g.Invocations++
	}
	return changed, nil
}

// evalBody computes the rows satisfying the service query's body against
// the graph, with input and context bound per Section 2.2.
func (g *Graph) evalBody(q *query.Query, e callEdge) (*evaluation, []pattern.Row, error) {
	input := g.newVertex(tree.Label, tree.Input, nil)
	input.Children = e.fn.Children
	return g.bodyRows(q, func(doc string) *Vertex {
		switch doc {
		case tree.Input:
			return input
		case tree.Context:
			return e.parent
		}
		return g.Roots[doc]
	})
}

// evaluation is one body's evaluation over the graph: its query.Plan, the
// matched atom's slots (all its rows can differ in), and for tree
// variables the memoised unfoldings, the cycle-reaching vertices and the
// sentinel standing for an infinite unfolding.
type evaluation struct {
	g        *Graph
	pl       *query.Plan
	slots    []int
	unfolded map[*Vertex]*tree.Node
	cyclic   map[int]bool
	infinite *tree.Node
}

// bodyRows computes the rows satisfying q's body and inequalities over the
// graph, roots giving the root vertex of each document name: the plan's
// row evaluation with the vertex matcher as its step, atoms in body order.
func (g *Graph) bodyRows(q *query.Query, roots func(doc string) *Vertex) (*evaluation, []pattern.Row, error) {
	ev := &evaluation{
		g:        g,
		pl:       &query.Plan{Name: q.Name, Ineqs: q.Ineqs},
		unfolded: map[*Vertex]*tree.Node{},
		// No unfolding has a value node with a child, so no bound subtree
		// shares the sentinel's digest.
		infinite: &tree.Node{Kind: tree.Value, Children: []*tree.Node{{Kind: tree.Value}}},
	}
	slots := make([][]int, len(q.Body))
	for i, a := range q.Body {
		slots[i] = ev.pl.Vars.Compile(a.Pattern).Slots()
	}
	ev.pl.Head = ev.pl.Vars.Compile(q.Head)
	rows, err := ev.pl.Rows(slots, func(i, _ int, base pattern.Row) []pattern.Row {
		root := roots(q.Body[i].Doc)
		if root == nil {
			return nil
		}
		ev.slots = slots[i]
		return ev.match(q.Body[i].Pattern, root, base)
	})
	return ev, rows, err
}

// match returns the distinct extensions of r under which the pattern
// embeds into the graph, pattern root at vertex v: an atom variable binds
// v's marking, a tree variable v's unfolding. Patterns have finite depth,
// so the recursion terminates despite graph cycles.
func (ev *evaluation) match(p *pattern.Node, v *Vertex, r pattern.Row) []pattern.Row {
	if !pattern.Compatible(p, v.Kind, v.Name) {
		return nil
	}
	if p.Kind.IsVar() {
		d := v.mark
		if p.Kind == pattern.VarTree {
			d = ev.subtree(v)
		}
		var ok bool
		if r, ok = r.Bind(p.Kind, ev.pl.Vars.Slot(p.Name), d); !ok {
			return nil
		}
	}
	rows := []pattern.Row{r}
	for _, pc := range p.Children {
		var extended []pattern.Row
		for _, r := range rows {
			for _, vc := range v.Children {
				extended = append(extended, ev.match(pc, vc, r)...)
			}
		}
		if len(extended) == 0 {
			return nil
		}
		rows = pattern.Distinct(extended, ev.slots)
	}
	return rows
}

// subtree is what a tree variable matched at v binds: v's memoised
// unfolding, or the sentinel when a cycle is reachable from v.
func (ev *evaluation) subtree(v *Vertex) *tree.Node {
	if ev.cyclic == nil {
		ev.cyclic = ev.g.cycleReaching()
	}
	if ev.cyclic[v.ID] {
		return ev.infinite
	}
	t, ok := ev.unfolded[v]
	if !ok {
		t, _ = v.UnfoldFull() // no cycle is reachable from v
		ev.unfolded[v] = t
	}
	return t
}

// attach installs the shared instantiation of the query head under the
// call's parent, reporting whether it was new there. The instantiation is
// keyed by the row's bindings of every body variable.
func (g *Graph) attach(e callEdge, q *query.Query, ev *evaluation, r pattern.Row) (bool, error) {
	all := make([]int, ev.pl.Vars.Len())
	for i := range all {
		all[i] = i
	}
	key := q.Name + "(" + string(r.AppendKey(nil, all)) + ")"
	root, ok := g.inst[key]
	if !ok {
		var err error
		root, err = g.instantiate(q.Head, &ev.pl.Vars, r, key, "h")
		if err != nil {
			return false, err
		}
	}
	ak := attachKey{parent: e.parent.ID, inst: key}
	if g.attached[ak] {
		return false, nil
	}
	g.attached[ak] = true
	e.parent.Children = append(e.parent.Children, root)
	g.Attachments++
	return true, nil
}

// instantiate builds (and memoizes, per head position) the vertex tree of
// µ(head) for the row r over vars. Memoizing every head position under the
// same key makes identical instantiations fully shared, including their
// inner nodes.
func (g *Graph) instantiate(head *pattern.Node, vars *pattern.Vars, r pattern.Row, key, pos string) (*Vertex, error) {
	posKey := key + "@" + pos
	if v, ok := g.inst[posKey]; ok {
		return v, nil
	}
	var kind tree.Kind
	var name string
	switch head.Kind {
	case pattern.ConstLabel:
		kind, name = tree.Label, head.Name
	case pattern.ConstValue:
		kind, name = tree.Value, head.Name
	case pattern.ConstFunc:
		kind, name = tree.Func, head.Name
	case pattern.VarLabel, pattern.VarValue, pattern.VarFunc:
		i := vars.Slot(head.Name)
		if r.Bound(i) == nil || vars.Kind(i) == pattern.VarTree {
			return nil, fmt.Errorf("regular: head variable %s unbound", head.Name)
		}
		switch head.Kind {
		case pattern.VarLabel:
			kind = tree.Label
		case pattern.VarValue:
			kind = tree.Value
		default:
			kind = tree.Func
		}
		name = r.Bound(i).Name
	default:
		return nil, fmt.Errorf("regular: tree variable in a simple system head")
	}
	v := g.newVertex(kind, name, nil)
	g.inst[posKey] = v
	if pos == "h" {
		g.inst[key] = v
	}
	for i, c := range head.Children {
		cv, err := g.instantiate(c, vars, r, key, fmt.Sprintf("%s.%d", pos, i))
		if err != nil {
			return nil, err
		}
		v.Children = append(v.Children, cv)
	}
	return v, nil
}

// VertexCount returns the number of vertices reachable from the roots.
func (g *Graph) VertexCount() int {
	seen := map[int]bool{}
	var visit func(v *Vertex)
	visit = func(v *Vertex) {
		if seen[v.ID] {
			return
		}
		seen[v.ID] = true
		for _, c := range v.Children {
			visit(c)
		}
	}
	for _, name := range g.DocNames {
		visit(g.Roots[name])
	}
	return len(seen)
}

// HasCycle reports whether a cycle is reachable from any document root.
// By Lemma 3.2 the represented semantics is infinite iff such a cycle
// exists, so a simple positive system terminates iff its graph is acyclic
// (Theorem 3.3).
func (g *Graph) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	var dfs func(v *Vertex) bool
	dfs = func(v *Vertex) bool {
		color[v.ID] = gray
		for _, c := range v.Children {
			switch color[c.ID] {
			case gray:
				return true
			case white:
				if dfs(c) {
					return true
				}
			}
		}
		color[v.ID] = black
		return false
	}
	for _, name := range g.DocNames {
		if color[g.Roots[name].ID] == white && dfs(g.Roots[name]) {
			return true
		}
	}
	return false
}

// Unfold materializes the tree represented by v up to the given depth
// (number of node levels). Cyclic parts repeat until the depth budget is
// exhausted; the result is reduced.
func (v *Vertex) Unfold(depth int) *tree.Node {
	if v == nil || depth <= 0 {
		return nil
	}
	n := &tree.Node{Kind: v.Kind, Name: v.Name}
	for _, c := range v.Children {
		if cn := c.Unfold(depth - 1); cn != nil {
			n.Children = append(n.Children, cn)
		}
	}
	return subsume.ReduceInPlace(n)
}

// UnfoldFull materializes the exact finite tree represented by v. It
// fails if a cycle is reachable from v (the tree would be infinite).
func (v *Vertex) UnfoldFull() (*tree.Node, error) {
	onPath := map[int]bool{}
	var rec func(v *Vertex) (*tree.Node, error)
	rec = func(v *Vertex) (*tree.Node, error) {
		if onPath[v.ID] {
			return nil, fmt.Errorf("regular: UnfoldFull on a cyclic vertex %d (%s)", v.ID, v.Name)
		}
		onPath[v.ID] = true
		defer delete(onPath, v.ID)
		n := &tree.Node{Kind: v.Kind, Name: v.Name}
		for _, c := range v.Children {
			cn, err := rec(c)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, cn)
		}
		return n, nil
	}
	n, err := rec(v)
	if err != nil {
		return nil, err
	}
	return subsume.ReduceInPlace(n), nil
}

// SnapshotQuery evaluates a simple query against the graph, i.e. against
// the full semantics [I]: the result is q's full result [q](I), which is
// always finite for simple queries (Section 3.3), and QFinite's answer.
// Tree variables are rejected.
func (g *Graph) SnapshotQuery(q *query.Query) (tree.Forest, error) {
	if !q.IsSimple() {
		return nil, fmt.Errorf("regular: SnapshotQuery requires a simple query")
	}
	_, ans, err := g.QFinite(q)
	return ans, err
}

// String renders the graph as one line per reachable vertex, stable across
// runs, for debugging and golden tests.
func (g *Graph) String() string {
	var ids []int
	byID := map[int]*Vertex{}
	seen := map[int]bool{}
	var visit func(v *Vertex)
	visit = func(v *Vertex) {
		if seen[v.ID] {
			return
		}
		seen[v.ID] = true
		ids = append(ids, v.ID)
		byID[v.ID] = v
		for _, c := range v.Children {
			visit(c)
		}
	}
	for _, name := range g.DocNames {
		visit(g.Roots[name])
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, name := range g.DocNames {
		fmt.Fprintf(&b, "doc %s -> v%d\n", name, g.Roots[name].ID)
	}
	for _, id := range ids {
		v := byID[id]
		mark := v.Name
		switch v.Kind {
		case tree.Value:
			mark = fmt.Sprintf("%q", v.Name)
		case tree.Func:
			mark = "!" + v.Name
		}
		fmt.Fprintf(&b, "v%d %s ->", id, mark)
		for _, c := range v.Children {
			fmt.Fprintf(&b, " v%d", c.ID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Terminates decides termination of a simple positive system exactly
// (Theorem 3.3: decidable, exptime; the construction cost is visible in
// the returned graph's counters).
func Terminates(s *core.System, opts BuildOptions) (bool, *Graph, error) {
	g, err := Build(s, opts)
	if err != nil {
		return false, nil, err
	}
	return !g.HasCycle(), g, nil
}
