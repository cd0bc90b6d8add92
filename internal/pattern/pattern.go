// Package pattern implements positive AXML tree patterns (Section 3.1 of
// the paper): subtrees of AXML documents in which some labels, function
// names and atomic values are replaced by variables. Four variable kinds
// exist, one per node kind plus tree variables that range over whole
// subtrees:
//
//	%x  label variable      (matches a data node's label)
//	$x  value variable      (matches an atomic value leaf)
//	^f  function variable   (matches a function node's name)
//	#X  tree variable       (matches and captures an entire subtree)
//
// Matching computes all homomorphisms µ such that µ(p) ⊆ d with the
// pattern root mapped to the document root: markings must agree (or bind a
// variable consistently) and every pattern child must map into some
// document child. Different pattern children may map to the same document
// child, exactly as in tree subsumption.
//
// There is one matcher: (*Index).MatchRows. It runs a pattern compiled
// against a plan's numbered variables (Vars.Compile) over rows — one bound
// document node per variable slot, drawn from a per-evaluation Slab — and
// flags the rows witnessed after a baseline (none at math.MaxUint64). Its
// plan (reject / anchored / walk, see index.go) only chooses how much of
// the document is visited; MatchDelta runs its spine match from the fresh
// roots alone, for the flagged rows. Matchers over other
// structures (pathexpr's NFA paths, regular's vertex graphs) run over the
// same rows: they bind through Row.Bind, the one bind rule, and
// deduplicate through Distinct, the one dedup. The name-keyed Assignment
// is only Match's result type.
package pattern

import (
	"fmt"
	"math"
	"strings"

	"axml/internal/tree"
)

// Kind classifies pattern nodes: the three constant node kinds plus the
// four variable kinds.
type Kind uint8

const (
	// ConstLabel matches a data node with exactly this label.
	ConstLabel Kind = iota
	// ConstValue matches an atomic value leaf with exactly this value.
	ConstValue
	// ConstFunc matches a function node calling exactly this service.
	ConstFunc
	// VarLabel binds the label of a data node.
	VarLabel
	// VarValue binds the value of an atomic value leaf.
	VarValue
	// VarFunc binds the name of a function node.
	VarFunc
	// VarTree binds an entire subtree. Tree variables are leaves of the
	// pattern and may occur at most once in a query body (Def 3.1).
	VarTree
)

// IsVar reports whether the kind is one of the four variable kinds.
func (k Kind) IsVar() bool { return k >= VarLabel }

// String returns the human-readable kind name.
func (k Kind) String() string {
	switch k {
	case ConstLabel:
		return "label"
	case ConstValue:
		return "value"
	case ConstFunc:
		return "func"
	case VarLabel:
		return "label-var"
	case VarValue:
		return "value-var"
	case VarFunc:
		return "func-var"
	case VarTree:
		return "tree-var"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// treeKind returns the kind of the document nodes a constant or atom
// variable of kind k stands for.
func (k Kind) treeKind() tree.Kind {
	switch k {
	case ConstValue, VarValue:
		return tree.Value
	case ConstFunc, VarFunc:
		return tree.Func
	default:
		return tree.Label
	}
}

// Sigil returns the variable sigil used by the concrete syntax for this
// kind, or 0 for constants.
func (k Kind) Sigil() byte {
	switch k {
	case VarLabel:
		return '%'
	case VarValue:
		return '$'
	case VarFunc:
		return '^'
	case VarTree:
		return '#'
	default:
		return 0
	}
}

// Node is a pattern node. For constant kinds Name is the marking; for
// variable kinds Name is the variable name.
type Node struct {
	Kind     Kind
	Name     string
	Children []*Node
}

// Label returns a constant label pattern node.
func Label(name string, children ...*Node) *Node {
	return &Node{Kind: ConstLabel, Name: name, Children: children}
}

// Value returns a constant atomic-value pattern leaf.
func Value(v string) *Node { return &Node{Kind: ConstValue, Name: v} }

// Func returns a constant function-call pattern node.
func Func(name string, children ...*Node) *Node {
	return &Node{Kind: ConstFunc, Name: name, Children: children}
}

// LVar, VVar, FVar and TVar return variable pattern nodes of the four
// kinds. Label and function variables may have children patterns; value
// and tree variables are leaves.
func LVar(name string, children ...*Node) *Node {
	return &Node{Kind: VarLabel, Name: name, Children: children}
}

// VVar returns a value-variable leaf.
func VVar(name string) *Node { return &Node{Kind: VarValue, Name: name} }

// FVar returns a function-variable node.
func FVar(name string, children ...*Node) *Node {
	return &Node{Kind: VarFunc, Name: name, Children: children}
}

// TVar returns a tree-variable leaf.
func TVar(name string) *Node { return &Node{Kind: VarTree, Name: name} }

// FromTree converts a constant AXML tree into the equivalent pattern.
func FromTree(t *tree.Node) *Node {
	if t == nil {
		return nil
	}
	var k Kind
	switch t.Kind {
	case tree.Label:
		k = ConstLabel
	case tree.Value:
		k = ConstValue
	case tree.Func:
		k = ConstFunc
	}
	n := &Node{Kind: k, Name: t.Name}
	for _, c := range t.Children {
		n.Children = append(n.Children, FromTree(c))
	}
	return n
}

// Copy deep-copies the pattern.
func (p *Node) Copy() *Node {
	if p == nil {
		return nil
	}
	c := &Node{Kind: p.Kind, Name: p.Name}
	for _, ch := range p.Children {
		c.Children = append(c.Children, ch.Copy())
	}
	return c
}

// Validate checks pattern well-formedness: value and tree variables and
// constant values must be leaves.
func (p *Node) Validate() error {
	if p == nil {
		return fmt.Errorf("pattern: nil node")
	}
	if (p.Kind == ConstValue || p.Kind == VarValue || p.Kind == VarTree) && len(p.Children) > 0 {
		return fmt.Errorf("pattern: %s node %q must be a leaf", p.Kind, p.Name)
	}
	for _, c := range p.Children {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Vars collects the variables of the pattern into dst, recording each
// variable's kind (the first one met). It returns an error if the same
// variable name is used with two different kinds, after collecting every
// name.
func (p *Node) Vars(dst map[string]Kind) error {
	if p == nil {
		return nil
	}
	var err error
	if p.Kind.IsVar() {
		if prev, ok := dst[p.Name]; !ok {
			dst[p.Name] = p.Kind
		} else if prev != p.Kind {
			err = fmt.Errorf("pattern: variable %q used both as %s and %s", p.Name, prev, p.Kind)
		}
	}
	for _, c := range p.Children {
		if e := c.Vars(dst); err == nil {
			err = e
		}
	}
	return err
}

// CountTreeVars returns how many tree-variable occurrences the pattern has.
func (p *Node) CountTreeVars() int {
	if p == nil {
		return 0
	}
	n := 0
	if p.Kind == VarTree {
		n = 1
	}
	for _, c := range p.Children {
		n += c.CountTreeVars()
	}
	return n
}

// IsSimple reports whether the pattern uses no tree variables.
func (p *Node) IsSimple() bool { return p.CountTreeVars() == 0 }

// Size returns the number of pattern nodes.
func (p *Node) Size() int {
	if p == nil {
		return 0
	}
	s := 1
	for _, c := range p.Children {
		s += c.Size()
	}
	return s
}

// String renders the pattern in the concrete syntax.
func (p *Node) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (p *Node) write(b *strings.Builder) {
	switch p.Kind {
	case ConstValue:
		fmt.Fprintf(b, "%q", p.Name)
	case ConstFunc:
		b.WriteByte('!')
		b.WriteString(p.Name)
	case ConstLabel:
		b.WriteString(p.Name)
	default:
		b.WriteByte(p.Kind.Sigil())
		b.WriteString(p.Name)
	}
	if len(p.Children) == 0 {
		return
	}
	b.WriteByte('{')
	for i, c := range p.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.write(b)
	}
	b.WriteByte('}')
}

// Binding is the value assigned to one variable: either an atomic string
// (label, value or function name, according to the variable's kind) or a
// subtree for tree variables.
type Binding struct {
	// Tree is non-nil exactly for tree-variable bindings. It aliases a
	// subtree of the matched document; Instantiate copies it.
	Tree *tree.Node
	// Atom holds the bound label, atomic value or function name.
	Atom string
}

// Assignment maps variable names to bindings (the paper's µ, restricted to
// the variables).
type Assignment map[string]Binding

// Copy returns a shallow copy of the assignment.
func (a Assignment) Copy() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Match returns every assignment µ (restricted to the pattern's variables)
// such that µ(p) ⊆ d with the pattern root mapped to the document root:
// MatchRows with p compiled on its own, each row converted. Results are
// deduplicated.
func Match(p *Node, d *tree.Node) []Assignment {
	var v Vars
	c := v.Compile(p)
	var out []Assignment
	for _, r := range (*Index)(nil).MatchRows(c, d, NewSlab(&v).Row(), math.MaxUint64) {
		out = append(out, r.Assignment(nil))
	}
	return out
}

// Assignment converts the row to an assignment: base's bindings and the
// row's bound slots.
func (r Row) Assignment(base Assignment) Assignment {
	a := base.Copy()
	for i, n := range r.s {
		switch {
		case n == nil:
		case r.slab.vars.kinds[i] == VarTree:
			a[r.slab.vars.names[i]] = Binding{Tree: n}
		default:
			a[r.slab.vars.names[i]] = Binding{Atom: n.Name}
		}
	}
	return a
}

// Compatible reports whether pattern node p can be placed on a node marked
// (kind, name), ignoring variable bindings: a constant needs that exact
// marking, an atom variable that node kind, a tree variable nothing.
func Compatible(p *Node, kind tree.Kind, name string) bool {
	if p.Kind >= VarTree {
		return p.Kind == VarTree
	}
	return kind == p.Kind.treeKind() && (p.Kind.IsVar() || name == p.Name)
}

// Instantiate applies the row to the compiled head, producing the tree
// µ(r). Every variable of the head must be bound, with its own kind;
// tree-variable bindings are deep-copied into the result.
func (c *Compiled) Instantiate(r Row) (*tree.Node, error) {
	if c.root == nil {
		return nil, fmt.Errorf("pattern: nil head")
	}
	return instantiate(c.root, r)
}

func instantiate(h *cnode, r Row) (*tree.Node, error) {
	name := h.name
	switch h.kind {
	case ConstLabel, ConstValue, ConstFunc: // the marking is the head's own
	case VarTree:
		b := r.s[h.slot]
		if b == nil || r.slab.vars.kinds[h.slot] != VarTree {
			return nil, fmt.Errorf("pattern: tree variable #%s unbound in head", h.name)
		}
		return b.Copy(), nil
	case VarLabel, VarValue, VarFunc:
		b := r.s[h.slot]
		if b == nil || r.slab.vars.kinds[h.slot] == VarTree {
			return nil, fmt.Errorf("pattern: variable %c%s unbound in head", h.kind.Sigil(), h.name)
		}
		name = b.Name
	default:
		return nil, fmt.Errorf("pattern: cannot instantiate node of kind %s", h.kind)
	}
	n := &tree.Node{Kind: h.kind.treeKind(), Name: name}
	for _, c := range h.kids {
		cn, err := instantiate(c, r)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}
