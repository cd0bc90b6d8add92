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
// There is one matcher: (*Index).MatchUnderSince. Its recursion threads a
// freshness flag per assignment (Stamped) against a baseline version;
// matching with no baseline — Match, MatchUnder — is that recursion at
// since = math.MaxUint64, which no stamp exceeds. Its plan (reject /
// anchored / walk, see index.go) only chooses how much of the document is
// visited. Matchers over other structures (pathexpr's NFA paths, regular's
// vertex graphs) share the marking test (Compatible, BindAtom) and the
// dedups (Dedup, DedupStamped) instead of carrying copies.
package pattern

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// variable's kind. It returns an error if the same variable name is used
// with two different kinds.
func (p *Node) Vars(dst map[string]Kind) error {
	if p == nil {
		return nil
	}
	if p.Kind.IsVar() {
		if prev, ok := dst[p.Name]; ok && prev != p.Kind {
			return fmt.Errorf("pattern: variable %q used both as %s and %s", p.Name, prev, p.Kind)
		}
		dst[p.Name] = p.Kind
	}
	for _, c := range p.Children {
		if err := c.Vars(dst); err != nil {
			return err
		}
	}
	return nil
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

// appendKey writes the binding's identity into sb. Tree bindings are
// keyed by their memoized structural digest — 32 opaque bytes instead of
// a canonical string that re-serializes the subtree on every dedup probe.
// Equal digests mean isomorphic subtrees (see tree.Hash), which is
// exactly the equality Key deduplicates by.
func (b Binding) appendKey(sb *strings.Builder) {
	if b.Tree != nil {
		h := b.Tree.Digest()
		sb.WriteString("t:")
		sb.Write(h[:])
		return
	}
	sb.WriteString("a:")
	sb.WriteString(b.Atom)
}

// keyLen returns the exact length appendKey will write.
func (b Binding) keyLen() int {
	if b.Tree != nil {
		return 2 + len(tree.Hash{})
	}
	return 2 + len(b.Atom)
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

// Key returns a canonical string identifying the assignment, used to
// deduplicate matches and to memoize instantiations. The key is opaque:
// tree bindings enter it as structural digests, not as canonical strings
// (see Binding.appendKey), and the buffer is sized exactly once — Key
// sits on the dedup hot path, where every match probes the seen-map.
func (a Assignment) Key() string {
	names := make([]string, 0, len(a))
	size := 0
	for n, b := range a {
		names = append(names, n)
		size += len(n) + b.keyLen() + 2
	}
	slices.Sort(names)
	var sb strings.Builder
	sb.Grow(size)
	for i, n := range names {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		a[n].appendKey(&sb)
	}
	return sb.String()
}

// AppendKey appends to buf an injective encoding of a's bindings of vars,
// in the order given (an unbound variable encodes as unbound): a join key.
// Tree bindings enter as their digests, as in Key.
func (a Assignment) AppendKey(buf []byte, vars []string) []byte {
	for _, v := range vars {
		switch b, ok := a[v]; {
		case !ok:
			buf = append(buf, 0)
		case b.Tree != nil:
			h := b.Tree.Digest()
			buf = append(append(buf, 1), h[:]...)
		default:
			buf = append(binary.AppendUvarint(append(buf, 2), uint64(len(b.Atom))), b.Atom...)
		}
	}
	return buf
}

// Extend joins a with ext, matched under an assignment agreeing with a on
// ext's shared variables: ext itself when it binds every variable of a
// alike, else a copy carrying a's bindings. Neither input is modified.
func (a Assignment) Extend(ext Assignment) Assignment {
	for k, v := range a {
		if b, ok := ext[k]; !ok || b != v {
			out := ext.Copy()
			for k, v := range a {
				out[k] = v
			}
			return out
		}
	}
	return ext
}

// Match returns every assignment µ (restricted to the pattern's variables)
// such that µ(p) ⊆ d with the pattern root mapped to the document root.
// Results are deduplicated.
func Match(p *Node, d *tree.Node) []Assignment {
	return MatchUnder(p, d, nil)
}

// MatchUnder is Match starting from a partial assignment that every
// returned assignment must extend consistently. The base assignment is not
// modified.
func MatchUnder(p *Node, d *tree.Node, base Assignment) []Assignment {
	return (*Index)(nil).MatchUnder(p, d, base)
}

// Stamped is an assignment annotated with whether any witnessing
// embedding touches a node stamped after the caller's baseline version.
// Semi-naive evaluation keeps only the New assignments: an assignment
// whose every witness lies entirely in the old part of the document was
// already derivable at the baseline (appends only add fresh-stamped
// nodes and reduction pruning is permanent).
type Stamped struct {
	Asn Assignment
	New bool
}

// AppendKey is Assignment.AppendKey on the assignment.
func (s Stamped) AppendKey(buf []byte, vars []string) []byte { return s.Asn.AppendKey(buf, vars) }

// Extend joins the assignments (Assignment.Extend); the join is new iff
// either side is.
func (s Stamped) Extend(ext Stamped) Stamped {
	return Stamped{Asn: s.Asn.Extend(ext.Asn), New: s.New || ext.New}
}

// Assignments projects the flags away, keeping order; nil for no match.
func Assignments(sts []Stamped) []Assignment {
	if len(sts) == 0 {
		return nil
	}
	out := make([]Assignment, len(sts))
	for i, st := range sts {
		out[i] = st.Asn
	}
	return out
}

// Dedup drops assignments whose Key already occurred, in place.
func Dedup(as []Assignment) []Assignment {
	if len(as) < 2 {
		return as
	}
	seen := make(map[string]bool, len(as))
	out := as[:0]
	for _, a := range as {
		k := a.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}

// DedupStamped deduplicates by assignment key in place, OR-ing the New
// flags: an assignment is new iff at least one of its witnessing
// embeddings is.
func DedupStamped(as []Stamped) []Stamped {
	if len(as) < 2 {
		return as
	}
	idx := make(map[string]int, len(as))
	out := as[:0]
	for _, a := range as {
		k := a.Asn.Key()
		if i, ok := idx[k]; ok {
			if a.New {
				out[i].New = true
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, a)
	}
	return out
}

// matchNode returns all extensions of st under which p maps onto d, each
// flagged New when st was or the embedding touches a node stamped after
// since. It is the only recursion over document trees: matching without a
// baseline passes since = math.MaxUint64, which no stamp exceeds.
func matchNode(p *Node, d *tree.Node, st Stamped, since uint64) []Stamped {
	next, ok := bindMarking(p, d, st.Asn)
	if !ok {
		return nil
	}
	if p.Kind == VarTree {
		// The bound value is the whole subtree: it is fresh if any of its
		// nodes arrived after the baseline — a walk worth skipping when
		// nothing can be.
		fresh := st.New || (since != math.MaxUint64 && d.MaxStamp() > since)
		return []Stamped{{Asn: next, New: fresh}}
	}
	return matchChildren(p.Children, d, []Stamped{{Asn: next, New: st.New || d.Stamp > since}}, since)
}

// matchChildren requires every pattern child to map into some child of d,
// threading assignments through.
func matchChildren(pcs []*Node, d *tree.Node, sts []Stamped, since uint64) []Stamped {
	for _, pc := range pcs {
		var extended []Stamped
		for _, st := range sts {
			for _, dc := range d.Children {
				extended = append(extended, matchNode(pc, dc, st, since)...)
			}
		}
		if len(extended) == 0 {
			return nil
		}
		sts = DedupStamped(extended)
	}
	return sts
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

// BindAtom places the constant or atom-variable pattern node p on a node
// marked (kind, name) under asn, returning the (possibly extended)
// assignment: the marking must be Compatible and a variable bound in asn
// must be bound to that name. Tree variables bind subtrees, not markings,
// and never succeed here. Taking the marking instead of a *tree.Node lets
// matchers over other node types (graph vertices) share it.
func BindAtom(p *Node, kind tree.Kind, name string, asn Assignment) (Assignment, bool) {
	if p.Kind == VarTree || !Compatible(p, kind, name) {
		return asn, false
	}
	if !p.Kind.IsVar() {
		return asn, true
	}
	if prev, ok := asn[p.Name]; ok {
		return asn, prev.Tree == nil && prev.Atom == name
	}
	next := asn.Copy()
	next[p.Name] = Binding{Atom: name}
	return next, true
}

// bindMarking is BindAtom on a document node, plus the tree-variable case.
func bindMarking(p *Node, d *tree.Node, asn Assignment) (Assignment, bool) {
	if p.Kind != VarTree {
		return BindAtom(p, d.Kind, d.Name, asn)
	}
	if prev, ok := asn[p.Name]; ok {
		return asn, prev.Tree != nil && tree.Isomorphic(prev.Tree, d)
	}
	next := asn.Copy()
	next[p.Name] = Binding{Tree: d}
	return next, true
}

// Instantiate applies the assignment to a head pattern, producing the tree
// µ(r). Every variable of the head must be bound; tree-variable bindings
// are deep-copied into the result.
func Instantiate(head *Node, asn Assignment) (*tree.Node, error) {
	if head == nil {
		return nil, fmt.Errorf("pattern: nil head")
	}
	name := head.Name
	switch head.Kind {
	case ConstLabel, ConstValue, ConstFunc: // the marking is the head's own
	case VarTree:
		b, ok := asn[head.Name]
		if !ok || b.Tree == nil {
			return nil, fmt.Errorf("pattern: tree variable #%s unbound in head", head.Name)
		}
		return b.Tree.Copy(), nil
	case VarLabel, VarValue, VarFunc:
		b, ok := asn[head.Name]
		if !ok || b.Tree != nil {
			return nil, fmt.Errorf("pattern: variable %c%s unbound in head", head.Kind.Sigil(), head.Name)
		}
		name = b.Atom
	default:
		return nil, fmt.Errorf("pattern: cannot instantiate node of kind %s", head.Kind)
	}
	n := &tree.Node{Kind: head.Kind.treeKind(), Name: name}
	for _, c := range head.Children {
		cn, err := Instantiate(c, asn)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}
