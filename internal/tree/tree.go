// Package tree implements AXML documents: finite unordered labeled trees
// whose nodes are data nodes (labels or atomic values) or function nodes
// (embedded calls to Web services), following Definition 2.1 of
// "Positive Active XML" (Abiteboul, Benjelloun, Milo; PODS 2004).
//
// Trees are unordered: the order of a Children slice carries no meaning,
// and all comparison operations (see package subsume and CanonicalString
// here) treat sibling lists as multisets.
package tree

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Kind classifies the marking of a node, mirroring the disjoint domains
// L (labels), V (atomic values) and F (function names) of the paper.
type Kind uint8

const (
	// Label marks an inner or leaf data node carrying an element label.
	Label Kind = iota
	// Value marks a leaf data node carrying an atomic value.
	Value
	// Func marks a function node: an embedded call to the service whose
	// name is stored in Name. Its children subtrees are the call
	// parameters.
	Func
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Label:
		return "label"
	case Value:
		return "value"
	case Func:
		return "func"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is a node of an AXML document. The zero value is an empty label
// node; use the constructors for clarity. Nodes form trees: each node owns
// its Children and a node must not be shared between trees (use Copy).
type Node struct {
	// Kind says whether Name is a label, an atomic value or a function
	// name.
	Kind Kind
	// Name is the node's marking: λ(n) in the paper.
	Name string
	// Children are the children subtrees, an unordered multiset.
	Children []*Node
	// Stamp is the document version at which this node was appended (or
	// last restamped). Stamps order nodes by arrival so incremental
	// evaluation can restrict matching to the delta appended after a
	// baseline version; they carry no tree semantics and are ignored by
	// comparison operations. Zero means "present since the initial state".
	Stamp uint64

	// sym caches the interned symbol for (Kind, Name); 0 means not yet
	// interned. Filled lazily by Sym with atomic access — concurrent
	// readers race benignly (both store the same value). See intern.go.
	sym uint32
	// dig caches the subtree's structural digest (hash-cons digest); nil
	// means not computed since the last mutation. Filled lazily by Digest
	// with atomic access; mutators clear it via InvalidateDigest (see
	// hash.go for the invalidation contract).
	dig atomic.Pointer[Hash]
	// red, when 1, records that the subtree was verified reduced (no
	// subtree subsumed by a sibling) by package subsume. It rides the
	// digest invalidation contract: every path that clears dig clears red
	// too, so a set flag is trustworthy exactly when a memoized digest
	// would be. Makes re-reducing an untouched subtree O(1) — the steady
	// state of monotone merging, where most of a document never changes.
	red uint32
}

// NewLabel returns a data node labeled name with the given children.
func NewLabel(name string, children ...*Node) *Node {
	return &Node{Kind: Label, Name: name, Children: children}
}

// NewValue returns a leaf data node carrying the atomic value v.
func NewValue(v string) *Node {
	return &Node{Kind: Value, Name: v}
}

// NewFunc returns a function node calling service name with the given
// parameter subtrees.
func NewFunc(name string, params ...*Node) *Node {
	return &Node{Kind: Func, Name: name, Children: params}
}

// Add appends children to n and returns n for chaining. Only n's own
// digest memo is cleared: callers growing a node already attached below
// other nodes must invalidate the ancestor digests themselves
// (subsume.Graft does; see InvalidateDigest).
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	n.InvalidateDigest()
	return n
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Validate checks the well-formedness constraints of Definition 2.1:
// only leaves may carry atomic values.
func (n *Node) Validate() error {
	if n == nil {
		return fmt.Errorf("tree: nil node")
	}
	if n.Kind == Value && len(n.Children) > 0 {
		return fmt.Errorf("tree: value node %q has %d children; atomic values are leaves", n.Name, len(n.Children))
	}
	for _, c := range n.Children {
		if c == nil {
			return fmt.Errorf("tree: node %q has nil child", n.Name)
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Copy returns a deep copy of the subtree rooted at n. The interned
// symbol, the memoized structural digest and the reduced flag carry
// over: the copy is structurally identical to the original, so all three
// caches stay valid.
func (n *Node) Copy() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Name: n.Name, Stamp: n.Stamp}
	c.sym = atomic.LoadUint32(&n.sym)
	c.dig.Store(n.dig.Load())
	c.red = atomic.LoadUint32(&n.red)
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Copy()
		}
	}
	return c
}

// StampAll sets the Stamp of every node in the subtree to v. A
// whole-document restamp follows a by-hand edit (System.Touch), so
// StampAll doubles as the conservative digest invalidation for that
// path: the memoized digest of every node in the subtree is cleared.
// (Stamps themselves do not enter the digest.)
func (n *Node) StampAll(v uint64) {
	if n == nil {
		return
	}
	n.Stamp = v
	n.InvalidateDigest()
	for _, c := range n.Children {
		c.StampAll(v)
	}
}

// Restamp sets the Stamp of every node in the subtree to v and keeps the
// memos: stamps do not enter the digest. It stamps the fresh trees of an
// append, which Graft built as reduced copies with valid memos.
func (n *Node) Restamp(v uint64) {
	n.Stamp = v
	for _, c := range n.Children {
		c.Restamp(v)
	}
}

// MaxStamp returns the largest Stamp in the subtree rooted at n: the
// version at which the subtree's value (as an unordered tree) last
// changed by an append.
func (n *Node) MaxStamp() uint64 {
	if n == nil {
		return 0
	}
	m := n.Stamp
	for _, c := range n.Children {
		if cm := c.MaxStamp(); cm > m {
			m = cm
		}
	}
	return m
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Depth returns the height of the subtree rooted at n; a leaf has depth 1.
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// CountFunc returns the number of function nodes in the subtree.
func (n *Node) CountFunc() int {
	if n == nil {
		return 0
	}
	s := 0
	if n.Kind == Func {
		s = 1
	}
	for _, c := range n.Children {
		s += c.CountFunc()
	}
	return s
}

// Walk calls fn for every node of the subtree in preorder, passing the node
// and its parent (nil for the root). If fn returns false the walk stops.
func (n *Node) Walk(fn func(node, parent *Node) bool) {
	var rec func(node, parent *Node) bool
	rec = func(node, parent *Node) bool {
		if !fn(node, parent) {
			return false
		}
		for _, c := range node.Children {
			if !rec(c, node) {
				return false
			}
		}
		return true
	}
	if n != nil {
		rec(n, nil)
	}
}

// FuncNodes returns every function node in the subtree together with its
// parent (nil if the root itself is a function node), in preorder.
func (n *Node) FuncNodes() []FuncOccurrence {
	var out []FuncOccurrence
	n.Walk(func(node, parent *Node) bool {
		if node.Kind == Func {
			out = append(out, FuncOccurrence{Node: node, Parent: parent})
		}
		return true
	})
	return out
}

// FuncOccurrence locates a function node inside a document: the node itself
// and its parent (the attachment point for invocation results).
type FuncOccurrence struct {
	Node   *Node
	Parent *Node
}

// CanonicalString renders the subtree in the paper's compact syntax with
// children sorted by their own canonical strings. Two trees are isomorphic
// (equal as unordered trees) iff their canonical strings are equal. The
// rendering is also valid input for syntax.ParseDocument.
func (n *Node) CanonicalString() string {
	var b strings.Builder
	n.writeCanonical(&b)
	return b.String()
}

func (n *Node) writeCanonical(b *strings.Builder) {
	switch n.Kind {
	case Value:
		fmt.Fprintf(b, "%q", n.Name)
	case Func:
		b.WriteByte('!')
		b.WriteString(n.Name)
	default:
		b.WriteString(n.Name)
	}
	if len(n.Children) == 0 {
		return
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = c.CanonicalString()
	}
	sort.Strings(parts)
	b.WriteByte('{')
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteByte('}')
}

// String renders the subtree in the compact syntax preserving the current
// (arbitrary) child order. Use CanonicalString for comparisons.
func (n *Node) String() string {
	var b strings.Builder
	n.writeString(&b)
	return b.String()
}

func (n *Node) writeString(b *strings.Builder) {
	switch n.Kind {
	case Value:
		fmt.Fprintf(b, "%q", n.Name)
	case Func:
		b.WriteByte('!')
		b.WriteString(n.Name)
	default:
		b.WriteString(n.Name)
	}
	if len(n.Children) == 0 {
		return
	}
	b.WriteByte('{')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.writeString(b)
	}
	b.WriteByte('}')
}

// Isomorphic reports whether two trees are equal as unordered trees.
func Isomorphic(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.CanonicalString() == b.CanonicalString()
}

// Indent renders the subtree one node per line, indented, for debugging
// and CLI pretty-printing.
func (n *Node) Indent() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Kind {
		case Value:
			fmt.Fprintf(&b, "%q", n.Name)
		case Func:
			b.WriteString("!" + n.Name)
		default:
			b.WriteString(n.Name)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if n != nil {
		rec(n, 0)
	}
	return b.String()
}

// Stats summarizes a tree for reporting and debugging.
type Stats struct {
	Nodes  int
	Depth  int
	Labels int
	Values int
	Calls  int
}

// StatsOf computes Stats for the subtree rooted at n.
func StatsOf(n *Node) Stats {
	var st Stats
	n.Walk(func(nd, _ *Node) bool {
		st.Nodes++
		switch nd.Kind {
		case Label:
			st.Labels++
		case Value:
			st.Values++
		case Func:
			st.Calls++
		}
		return true
	})
	st.Depth = n.Depth()
	return st
}
