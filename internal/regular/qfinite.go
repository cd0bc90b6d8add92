package regular

import (
	"axml/internal/core"
	"axml/internal/query"
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
// function for semantics. A tree variable binds its vertex's unfolding, or
// the evaluation's sentinel when a cycle is reachable from the vertex: a
// row satisfying the body and inequalities with the sentinel in a head
// slot is an infinite answer.
func (g *Graph) QFinite(q *query.Query) (finite bool, answer tree.Forest, err error) {
	ev, rows, err := g.bodyRows(q, func(doc string) *Vertex { return g.Roots[doc] })
	if err != nil {
		return false, nil, err
	}
	for _, r := range rows {
		for _, s := range ev.pl.Head.Slots() {
			if r.Bound(s) == ev.infinite {
				return false, nil, nil
			}
		}
	}
	answer, err = ev.pl.Answers(rows)
	return err == nil, answer, err
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
