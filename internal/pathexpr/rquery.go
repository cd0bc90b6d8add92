package pathexpr

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"axml/internal/core"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/tree"
)

// RNode is a positive+reg tree pattern node: either an ordinary pattern
// node (constant or variable, as in package pattern) or a path node
// carrying a regular expression. A path node placed under a parent matches
// when some downward path from the parent's match, whose label word
// belongs to the regex language, ends at a node where the path node's
// children match. A path accepting the empty word may end at the parent
// itself.
type RNode struct {
	// IsPath distinguishes path nodes.
	IsPath bool
	// Expr and NFA are set for path nodes.
	Expr Regex
	NFA  *NFA
	// Kind and Name are set for ordinary nodes.
	Kind pattern.Kind
	Name string
	// Children continue below the node (for path nodes: below the path's
	// end node).
	Children []*RNode
}

// PathNode returns a path node over the given regex.
func PathNode(r Regex, children ...*RNode) *RNode {
	return &RNode{IsPath: true, Expr: r, NFA: CompileRegex(r), Children: children}
}

// FromPattern converts a plain pattern into an RNode tree.
func FromPattern(p *pattern.Node) *RNode {
	if p == nil {
		return nil
	}
	n := &RNode{Kind: p.Kind, Name: p.Name}
	for _, c := range p.Children {
		n.Children = append(n.Children, FromPattern(c))
	}
	return n
}

// ToPattern converts back to a plain pattern; it fails if any path node
// remains.
func (n *RNode) ToPattern() (*pattern.Node, error) {
	if n == nil {
		return nil, nil
	}
	if n.IsPath {
		return nil, fmt.Errorf("pathexpr: pattern still contains path node <%s>", n.Expr)
	}
	p := &pattern.Node{Kind: n.Kind, Name: n.Name}
	for _, c := range n.Children {
		cp, err := c.ToPattern()
		if err != nil {
			return nil, err
		}
		p.Children = append(p.Children, cp)
	}
	return p, nil
}

// HasPath reports whether any path node occurs in the pattern.
func (n *RNode) HasPath() bool {
	if n == nil {
		return false
	}
	if n.IsPath {
		return true
	}
	for _, c := range n.Children {
		if c.HasPath() {
			return true
		}
	}
	return false
}

// IsSimple reports whether the pattern uses no tree variables.
func (n *RNode) IsSimple() bool {
	if n == nil {
		return true
	}
	if !n.IsPath && n.Kind == pattern.VarTree {
		return false
	}
	for _, c := range n.Children {
		if !c.IsSimple() {
			return false
		}
	}
	return true
}

// Vars collects variable kinds, like pattern.Node.Vars: every name, and
// the first kind conflict as the error.
func (n *RNode) Vars(dst map[string]pattern.Kind) error {
	if n == nil {
		return nil
	}
	var err error
	if !n.IsPath && n.Kind.IsVar() {
		if prev, ok := dst[n.Name]; !ok {
			dst[n.Name] = n.Kind
		} else if prev != n.Kind {
			err = fmt.Errorf("pathexpr: variable %q used both as %s and %s", n.Name, prev, n.Kind)
		}
	}
	for _, c := range n.Children {
		if e := c.Vars(dst); err == nil {
			err = e
		}
	}
	return err
}

// String renders the pattern, path nodes as <regex>.
func (n *RNode) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *RNode) write(b *strings.Builder) {
	if n.IsPath {
		b.WriteByte('<')
		b.WriteString(n.Expr.String())
		b.WriteByte('>')
	} else {
		switch n.Kind {
		case pattern.ConstValue:
			fmt.Fprintf(b, "%q", n.Name)
		case pattern.ConstFunc:
			b.WriteByte('!')
			b.WriteString(n.Name)
		case pattern.ConstLabel:
			b.WriteString(n.Name)
		default:
			b.WriteByte(n.Kind.Sigil())
			b.WriteString(n.Name)
		}
	}
	if len(n.Children) == 0 {
		return
	}
	b.WriteByte('{')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.write(b)
	}
	b.WriteByte('}')
}

// RAtom is one positive+reg body conjunct.
type RAtom struct {
	Doc     string
	Pattern *RNode
}

// RQuery is a positive+reg query: a plain head over a body whose patterns
// may use path nodes.
type RQuery struct {
	Name  string
	Head  *pattern.Node
	Body  []RAtom
	Ineqs []query.Ineq
}

// IsSimple reports whether head and body use no tree variables.
func (q *RQuery) IsSimple() bool {
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

// HasPath reports whether any body pattern uses a path node.
func (q *RQuery) HasPath() bool {
	for _, a := range q.Body {
		if a.Pattern.HasPath() {
			return true
		}
	}
	return false
}

// Validate checks safety, mirroring query.Validate.
func (q *RQuery) Validate() error {
	if q.Head == nil {
		return fmt.Errorf("pathexpr: query %s: nil head", q.Name)
	}
	bodyVars := map[string]pattern.Kind{}
	for _, a := range q.Body {
		if a.Pattern == nil {
			return fmt.Errorf("pathexpr: query %s: nil pattern for %q", q.Name, a.Doc)
		}
		if err := a.Pattern.Vars(bodyVars); err != nil {
			return err
		}
	}
	headVars := map[string]pattern.Kind{}
	if err := q.Head.Vars(headVars); err != nil {
		return err
	}
	for v, k := range headVars {
		bk, ok := bodyVars[v]
		if !ok {
			return fmt.Errorf("pathexpr: query %s: head variable %c%s not bound in body", q.Name, k.Sigil(), v)
		}
		if bk != k {
			return fmt.Errorf("pathexpr: query %s: variable %s kind mismatch", q.Name, v)
		}
	}
	for _, e := range q.Ineqs {
		for _, t := range []query.Term{e.Left, e.Right} {
			if t.Var == "" {
				continue
			}
			if k, ok := bodyVars[t.Var]; !ok || k == pattern.VarTree {
				return fmt.Errorf("pathexpr: query %s: bad inequality variable %s", q.Name, t.Var)
			}
		}
	}
	return nil
}

// String renders the query in the concrete syntax ParseRQuery accepts
// (inequality variables carry the sigil of their kind, resolved from the
// body).
func (q *RQuery) String() string {
	kinds := map[string]pattern.Kind{}
	for _, a := range q.Body {
		_ = a.Pattern.Vars(kinds) // best effort; String never fails
	}
	renderTerm := func(t query.Term) string {
		if t.Var == "" {
			return fmt.Sprintf("%q", t.Const)
		}
		if k, ok := kinds[t.Var]; ok && k.Sigil() != 0 {
			return string(k.Sigil()) + t.Var
		}
		return "$" + t.Var
	}
	var parts []string
	for _, a := range q.Body {
		parts = append(parts, a.Doc+"/"+a.Pattern.String())
	}
	for _, e := range q.Ineqs {
		parts = append(parts, renderTerm(e.Left)+" != "+renderTerm(e.Right))
	}
	return q.Head.String() + " :- " + strings.Join(parts, ", ")
}

// Snapshot evaluates the positive+reg query directly on the document
// binding (no call invocation), by walking the NFA of each path node down
// the trees: a query.Plan over the body's variables, atoms in body order,
// with the row matcher rmatch as its step.
func Snapshot(q *RQuery, docs query.Docs) (tree.Forest, error) {
	pl := &query.Plan{Name: q.Name, Ineqs: q.Ineqs}
	slots := make([][]int, len(q.Body))
	for i, a := range q.Body {
		slots[i] = a.Pattern.number(&pl.Vars, nil)
	}
	pl.Head = pl.Vars.Compile(q.Head)
	m := &rmatch{vars: &pl.Vars}
	rows, err := pl.Rows(slots, func(i, _ int, base pattern.Row) []pattern.Row {
		d := docs[q.Body[i].Doc]
		if d == nil {
			return nil
		}
		m.slots = slots[i]
		return m.node(q.Body[i].Pattern, d, base)
	})
	if err != nil {
		return nil, err
	}
	return pl.Answers(rows)
}

// number numbers the pattern's variables in v, appending each one's slot
// to slots once.
func (n *RNode) number(v *pattern.Vars, slots []int) []int {
	if !n.IsPath && n.Kind.IsVar() {
		if s := v.Number(n.Name, n.Kind); !slices.Contains(slots, s) {
			slots = append(slots, s)
		}
	}
	for _, c := range n.Children {
		slots = c.number(v, slots)
	}
	return slots
}

// rmatch matches one atom's RNodes over rows: vars numbers the
// variables, slots lists the atom's (all its rows can differ in).
type rmatch struct {
	vars  *pattern.Vars
	slots []int
}

// node returns the extensions of r under which p matches at d.
func (m *rmatch) node(p *RNode, d *tree.Node, r pattern.Row) []pattern.Row {
	if p.IsPath {
		// A path node at the root of a pattern anchors at the document
		// root itself.
		return m.path(p, d, r)
	}
	ok := pattern.Compatible(&pattern.Node{Kind: p.Kind, Name: p.Name}, d.Kind, d.Name)
	if ok && p.Kind.IsVar() {
		r, ok = r.Bind(p.Kind, m.vars.Slot(p.Name), d)
	}
	switch {
	case !ok:
		return nil
	case p.Kind == pattern.VarTree: // a leaf binding the whole subtree
		return []pattern.Row{r}
	}
	return m.children(p.Children, d, []pattern.Row{r})
}

// children places each pattern child under every row: ordinary children
// map into some child of d, path children anchor at d itself.
func (m *rmatch) children(pcs []*RNode, d *tree.Node, rows []pattern.Row) []pattern.Row {
	for _, pc := range pcs {
		var extended []pattern.Row
		for _, r := range rows {
			if pc.IsPath {
				extended = append(extended, m.path(pc, d, r)...)
			} else {
				for _, dc := range d.Children {
					extended = append(extended, m.node(pc, dc, r)...)
				}
			}
		}
		if len(extended) == 0 {
			return nil
		}
		rows = pattern.Distinct(extended, m.slots)
	}
	return rows
}

// path finds all end nodes of paths from anchor whose label word is
// accepted, then matches the path node's children under each end node.
func (m *rmatch) path(p *RNode, anchor *tree.Node, r pattern.Row) []pattern.Row {
	var out []pattern.Row
	ends := map[*tree.Node]bool{}
	var explore func(node *tree.Node, states map[int]bool)
	explore = func(node *tree.Node, states map[int]bool) {
		if len(states) == 0 {
			return
		}
		if p.NFA.AnyFinal(states) && !ends[node] {
			ends[node] = true
			out = append(out, m.children(p.Children, node, []pattern.Row{r})...)
		}
		for _, c := range node.Children {
			if c.Kind != tree.Label {
				continue
			}
			explore(c, p.NFA.StepSet(states, c.Name))
		}
	}
	explore(anchor, map[int]bool{p.NFA.Start: true})
	return pattern.Distinct(out, m.slots)
}

// RQueryService exposes a positive+reg query as a monotone service: a
// positive+reg system is a system whose services are RQueryServices.
// Monotonicity holds for the same reason as Proposition 3.1 — path
// matching is existential, hence monotone.
type RQueryService struct {
	Query *RQuery
}

// NewRQueryService validates and wraps the query.
func NewRQueryService(q *RQuery) (*RQueryService, error) {
	if q == nil || q.Name == "" {
		return nil, fmt.Errorf("pathexpr: RQueryService needs a named query")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &RQueryService{Query: q}, nil
}

// ServiceName implements core.Service.
func (s *RQueryService) ServiceName() string { return s.Query.Name }

// Invoke implements core.Service by direct snapshot evaluation.
// Evaluation is pure and never blocks, so the context is only consulted
// on entry.
func (s *RQueryService) Invoke(ctx context.Context, b core.Binding) (tree.Forest, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Snapshot(s.Query, b.AllDocs())
}

// EvalFull computes the full result [q](I) of a positive+reg query over a
// system by running a fair rewriting on a copy (bounded by opts) and
// taking the direct snapshot of the final state.
func EvalFull(s *core.System, q *RQuery, opts core.RunOptions) (tree.Forest, bool, error) {
	c := s.Copy()
	run := c.Run(opts)
	if run.Err != nil {
		return nil, false, run.Err
	}
	docs := query.Docs{}
	for _, name := range c.DocNames() {
		docs[name] = c.Document(name).Root
	}
	ans, err := Snapshot(q, docs)
	if err != nil {
		return nil, false, err
	}
	return ans, run.Terminated, nil
}
