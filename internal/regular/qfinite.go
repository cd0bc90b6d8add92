package regular

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"axml/internal/core"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// QFinite decides q-finiteness of a simple positive system for an
// arbitrary (possibly non-simple) query q — Proposition 3.2(3). The
// system's semantics may be infinite; the query result [q](I) is finite
// iff no tree variable occurring in the head can bind a subtree of the
// semantics from which a cycle of the graph representation is reachable
// (such a binding is an infinite regular subtree, making the answer
// infinite; all other answers range over the finitely many vertex
// markings and vertex unfoldings).
//
// When the result is finite, Answer holds exactly [q](I): head
// instantiations with bound subtrees fully unfolded.
func QFinite(s *core.System, q *query.Query) (finite bool, answer tree.Forest, err error) {
	if err := q.Validate(); err != nil {
		return false, nil, err
	}
	g, err := Build(s, BuildOptions{})
	if err != nil {
		return false, nil, err
	}
	return g.QFinite(q)
}

// QFinite is the graph-side implementation; see the package-level
// function for semantics.
func (g *Graph) QFinite(q *query.Query) (finite bool, answer tree.Forest, err error) {
	headTreeVars := map[string]bool{}
	collectTreeVars(q.Head, headTreeVars)
	cyclic := g.cycleReaching()

	asns := query.Fold(gAsn{}, query.NameKeys(len(q.Body), func(i int, dst map[string]pattern.Kind) error {
		return q.Body[i].Pattern.Vars(dst)
	}), func(i, _ int, asn gAsn) []gAsn {
		root := g.Roots[q.Body[i].Doc]
		if root == nil {
			return nil
		}
		return g.matchG(q.Body[i].Pattern, root, asn)
	})
	var out tree.Forest
	for _, asn := range asns {
		ok, err := query.IneqsHold(q.Ineqs, asn.atoms())
		if err != nil {
			return false, nil, fmt.Errorf("regular: query %s: %w", q.Name, err)
		}
		if !ok {
			continue
		}
		// Finiteness: head tree variables must bind acyclic subtrees.
		for v := range headTreeVars {
			b, bound := asn[v]
			if bound && b.vtx != nil && cyclic[b.vtx.ID] {
				return false, nil, nil
			}
		}
		t, err := g.instantiateG(q.Head, asn)
		if err != nil {
			return false, nil, err
		}
		out = append(out, t)
	}
	return true, subsume.ReduceForest(out), nil
}

// gBinding is a graph-matching binding: an atom or a vertex (tree
// variables bind vertices, whose unfoldings are the bound subtrees).
type gBinding struct {
	atom string
	vtx  *Vertex
}

type gAsn map[string]gBinding

func (a gAsn) copyWith(name string, b gBinding) gAsn {
	c := make(gAsn, len(a)+1)
	for k, v := range a {
		c[k] = v
	}
	c[name] = b
	return c
}

// atoms is the assignment's atom bindings as a pattern.Assignment — all an
// inequality may mention; a vertex-bound tree variable reads as unbound.
func (a gAsn) atoms() pattern.Assignment {
	out := make(pattern.Assignment, len(a))
	for name, b := range a {
		if b.vtx == nil {
			out[name] = pattern.Binding{Atom: b.atom}
		}
	}
	return out
}

func (a gAsn) key() string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		bd := a[n]
		if bd.vtx != nil {
			fmt.Fprintf(&b, "%s=v%d|", n, bd.vtx.ID)
		} else {
			fmt.Fprintf(&b, "%s=a%s|", n, bd.atom)
		}
	}
	return b.String()
}

// AppendKey and Extend make gAsn a query.Partial, as on
// pattern.Assignment; a vertex binding is keyed by its ID.
func (a gAsn) AppendKey(buf []byte, vars []string) []byte {
	for _, v := range vars {
		switch b, ok := a[v]; {
		case !ok:
			buf = append(buf, 0)
		case b.vtx != nil:
			buf = binary.AppendUvarint(append(buf, 1), uint64(b.vtx.ID))
		default:
			buf = append(binary.AppendUvarint(append(buf, 2), uint64(len(b.atom))), b.atom...)
		}
	}
	return buf
}

func (a gAsn) Extend(ext gAsn) gAsn {
	for k, v := range a {
		if b, ok := ext[k]; !ok || b != v {
			out := make(gAsn, len(ext))
			for k, v := range ext {
				out[k] = v
			}
			for k, v := range a {
				out[k] = v
			}
			return out
		}
	}
	return ext
}

func dedupG(as []gAsn) []gAsn {
	seen := make(map[string]bool, len(as))
	out := as[:0]
	for _, a := range as {
		k := a.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}

// matchG matches a pattern (tree variables allowed) against the graph.
func (g *Graph) matchG(p *pattern.Node, v *Vertex, asn gAsn) []gAsn {
	if p.Kind == pattern.VarTree {
		if prev, ok := asn[p.Name]; ok {
			if prev.vtx != v {
				// Tree variables occur at most once in a body
				// (Definition 3.1), so this only guards misuse.
				return nil
			}
			return []gAsn{asn}
		}
		return []gAsn{asn.copyWith(p.Name, gBinding{vtx: v})}
	}
	next, ok := bindG(p, v, asn)
	if !ok {
		return nil
	}
	asns := []gAsn{next}
	for _, pc := range p.Children {
		var extended []gAsn
		for _, a := range asns {
			for _, vc := range v.Children {
				extended = append(extended, g.matchG(pc, vc, a)...)
			}
		}
		if len(extended) == 0 {
			return nil
		}
		asns = dedupG(extended)
	}
	return asns
}

// bindG is pattern.BindAtom over gAsn (matchG takes tree variables first).
func bindG(p *pattern.Node, v *Vertex, asn gAsn) (gAsn, bool) {
	if !pattern.Compatible(p, v.Kind, v.Name) {
		return asn, false
	}
	if !p.Kind.IsVar() {
		return asn, true
	}
	if prev, ok := asn[p.Name]; ok {
		return asn, prev.vtx == nil && prev.atom == v.Name
	}
	return asn.copyWith(p.Name, gBinding{atom: v.Name}), true
}

// instantiateG builds µ(head) with vertex bindings fully unfolded.
func (g *Graph) instantiateG(head *pattern.Node, asn gAsn) (*tree.Node, error) {
	if head.Kind == pattern.VarTree {
		b, ok := asn[head.Name]
		if !ok || b.vtx == nil {
			return nil, fmt.Errorf("regular: tree variable #%s unbound in head", head.Name)
		}
		return b.vtx.UnfoldFull()
	}
	var k tree.Kind
	var name string
	switch head.Kind {
	case pattern.ConstLabel:
		k, name = tree.Label, head.Name
	case pattern.ConstValue:
		k, name = tree.Value, head.Name
	case pattern.ConstFunc:
		k, name = tree.Func, head.Name
	case pattern.VarLabel, pattern.VarValue, pattern.VarFunc:
		b, ok := asn[head.Name]
		if !ok || b.vtx != nil {
			return nil, fmt.Errorf("regular: head variable %s unbound", head.Name)
		}
		name = b.atom
		switch head.Kind {
		case pattern.VarLabel:
			k = tree.Label
		case pattern.VarValue:
			k = tree.Value
		default:
			k = tree.Func
		}
	}
	n := &tree.Node{Kind: k, Name: name}
	for _, c := range head.Children {
		cn, err := g.instantiateG(c, asn)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}

// cycleReaching returns the set of vertex IDs from which a cycle is
// reachable (their unfoldings are infinite).
func (g *Graph) cycleReaching() map[int]bool {
	const (
		white = 0
		gray  = 1
		done  = 2
	)
	color := map[int]int{}
	infinite := map[int]bool{}
	var dfs func(v *Vertex) bool
	dfs = func(v *Vertex) bool {
		switch color[v.ID] {
		case gray:
			return true // back edge: cycle
		case done:
			return infinite[v.ID]
		}
		color[v.ID] = gray
		inf := false
		for _, c := range v.Children {
			if dfs(c) {
				inf = true
			}
		}
		color[v.ID] = done
		infinite[v.ID] = inf
		return inf
	}
	for _, name := range g.DocNames {
		dfs(g.Roots[name])
	}
	return infinite
}

func collectTreeVars(p *pattern.Node, dst map[string]bool) {
	if p == nil {
		return
	}
	if p.Kind == pattern.VarTree {
		dst[p.Name] = true
	}
	for _, c := range p.Children {
		collectTreeVars(c, dst)
	}
}
