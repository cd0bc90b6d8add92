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
	v := &Vertex{ID: g.nextID, Kind: kind, Name: name, Origin: origin}
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
		svc, ok := s.Service(e.fn.Name).(*core.QueryService)
		if !ok {
			return false, fmt.Errorf("regular: call to unknown or non-positive service %q", e.fn.Name)
		}
		asns, err := g.evalBody(svc.Query, e)
		if err != nil {
			return false, err
		}
		for _, asn := range asns {
			did, err := g.attach(e, svc.Query, asn)
			if err != nil {
				return false, err
			}
			changed = changed || did
		}
		g.Invocations++
	}
	return changed, nil
}

// evalBody computes the satisfying assignments of the service query's body
// against the graph, with input and context bound per Section 2.2.
func (g *Graph) evalBody(q *query.Query, e callEdge) ([]pattern.Assignment, error) {
	input := g.newVertex(tree.Label, tree.Input, nil)
	input.Children = e.fn.Children
	return g.bodyAssignments(q, func(doc string) *Vertex {
		switch doc {
		case tree.Input:
			return input
		case tree.Context:
			return e.parent
		}
		return g.Roots[doc]
	})
}

// bodyAssignments computes the assignments satisfying q's body and
// inequalities over the graph, roots giving the root vertex of each
// document name: query.Fold with the graph matcher as its step.
func (g *Graph) bodyAssignments(q *query.Query, roots func(doc string) *Vertex) ([]pattern.Assignment, error) {
	asns := query.Fold(pattern.Assignment{}, query.NameKeys(len(q.Body), func(i int, dst map[string]pattern.Kind) error {
		return q.Body[i].Pattern.Vars(dst)
	}), func(i, _ int, asn pattern.Assignment) []pattern.Assignment {
		root := roots(q.Body[i].Doc)
		if root == nil {
			return nil
		}
		return g.match(q.Body[i].Pattern, root, asn)
	})
	out := asns[:0]
	for _, asn := range asns {
		ok, err := query.IneqsHold(q.Ineqs, asn)
		if err != nil {
			return nil, fmt.Errorf("regular: query %s: %w", q.Name, err)
		}
		if ok {
			out = append(out, asn)
		}
	}
	return out, nil
}

// attach installs the shared instantiation of the query head under the
// call's parent, reporting whether it was new there.
func (g *Graph) attach(e callEdge, q *query.Query, asn pattern.Assignment) (bool, error) {
	key := q.Name + "(" + asn.Key() + ")"
	root, ok := g.inst[key]
	if !ok {
		var err error
		root, err = g.instantiate(q.Head, asn, key, "h")
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
// µ(head). Memoizing every head position under the same key makes
// identical instantiations fully shared, including their inner nodes.
func (g *Graph) instantiate(head *pattern.Node, asn pattern.Assignment, key, pos string) (*Vertex, error) {
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
		b, ok := asn[head.Name]
		if !ok || b.Tree != nil {
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
		name = b.Atom
	default:
		return nil, fmt.Errorf("regular: tree variable in a simple system head")
	}
	v := g.newVertex(kind, name, nil)
	g.inst[posKey] = v
	if pos == "h" {
		g.inst[key] = v
	}
	for i, c := range head.Children {
		cv, err := g.instantiate(c, asn, key, fmt.Sprintf("%s.%d", pos, i))
		if err != nil {
			return nil, err
		}
		v.Children = append(v.Children, cv)
	}
	return v, nil
}

// match computes assignments embedding a (simple) pattern into the graph,
// pattern root at vertex v. Patterns have finite depth, so the recursion
// terminates despite graph cycles.
func (g *Graph) match(p *pattern.Node, v *Vertex, asn pattern.Assignment) []pattern.Assignment {
	next, ok := pattern.BindAtom(p, v.Kind, v.Name, asn)
	if !ok {
		return nil
	}
	asns := []pattern.Assignment{next}
	for _, pc := range p.Children {
		var extended []pattern.Assignment
		for _, a := range asns {
			for _, vc := range v.Children {
				extended = append(extended, g.match(pc, vc, a)...)
			}
		}
		if len(extended) == 0 {
			return nil
		}
		asns = pattern.Dedup(extended)
	}
	return asns
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
// always finite for simple queries (Section 3.3). Tree variables are
// rejected.
func (g *Graph) SnapshotQuery(q *query.Query) (tree.Forest, error) {
	if !q.IsSimple() {
		return nil, fmt.Errorf("regular: SnapshotQuery requires a simple query")
	}
	asns, err := g.bodyAssignments(q, func(doc string) *Vertex { return g.Roots[doc] })
	if err != nil {
		return nil, err
	}
	return query.Answers(q.Name, q.Head, asns)
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
