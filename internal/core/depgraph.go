package core

import (
	"fmt"
	"sort"
)

// DepGraph is the dependency graph of Definition 3.2 for positive systems:
// vertices are document and function names; there is an edge (d, f) when f
// occurs in I(d), and edges (f, d) and (f, g) when d (resp. g) occurs in
// the definition I(f).
type DepGraph struct {
	// Edges maps each vertex to its successors, sorted.
	Edges map[string][]string
	// IsDoc distinguishes document vertices from function vertices.
	IsDoc map[string]bool
}

// DependencyGraph builds the dependency graph. It fails on systems with
// black-box services, whose definitions are unknown; services wrapped in
// middleware (Retry, Timeout, faults.FaultService, ...) are unwrapped to
// their innermost implementation first, so a decorated declarative
// service stays analyzable. Use ConservativeDependencyGraph for mixed
// systems.
func (s *System) DependencyGraph() (*DepGraph, error) {
	return s.dependencyGraph(false)
}

// ConservativeDependencyGraph builds the dependency graph of a system
// that may contain black-box services, over-approximating each black box
// by an edge to every document: an opaque service could read anything,
// so anything it could read must count as a dependency. The graph never
// fails to build; for fully declarative systems it coincides with
// DependencyGraph. The incremental engine uses this over-approximation
// so one opaque service degrades only its own calls to full re-firing,
// not the whole system to full sweeps.
func (s *System) ConservativeDependencyGraph() *DepGraph {
	g, err := s.dependencyGraph(true)
	if err != nil {
		// Unreachable: conservative mode has no failing path. Keep the
		// panic so a future edit cannot silently start returning nil.
		panic(err)
	}
	return g
}

func (s *System) dependencyGraph(conservative bool) (*DepGraph, error) {
	g := &DepGraph{Edges: map[string][]string{}, IsDoc: map[string]bool{}}
	add := func(from, to string) {
		g.Edges[from] = append(g.Edges[from], to)
	}
	for _, name := range s.docNames {
		g.IsDoc[name] = true
		g.Edges[name] = nil
	}
	for _, name := range s.funcNames {
		g.Edges[name] = nil
	}
	for _, name := range s.docNames {
		seen := map[string]bool{}
		for _, occ := range s.docs[name].Root.FuncNodes() {
			if !seen[occ.Node.Name] {
				seen[occ.Node.Name] = true
				add(name, occ.Node.Name)
			}
		}
	}
	for _, fname := range s.funcNames {
		qs := s.funcs[fname].query
		if qs == nil {
			if !conservative {
				return nil, fmt.Errorf("core: dependency graph needs declarative services; %q is a black box", fname)
			}
			for _, d := range s.docNames {
				add(fname, d)
			}
			continue
		}
		for _, d := range qs.Query.DocNames() {
			if g.IsDoc[d] {
				add(fname, d)
			}
		}
		for _, gname := range queryFuncNames(qs.Query) {
			add(fname, gname)
		}
	}
	for v := range g.Edges {
		sort.Strings(g.Edges[v])
		g.Edges[v] = dedupStrings(g.Edges[v])
	}
	return g, nil
}

func dedupStrings(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// HasCycle reports whether the graph contains a directed cycle, together
// with one witness cycle (vertex sequence) when it does.
func (g *DepGraph) HasCycle() (bool, []string) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var cycle []string
	var dfs func(v string) bool
	dfs = func(v string) bool {
		color[v] = gray
		stack = append(stack, v)
		for _, w := range g.Edges[v] {
			switch color[w] {
			case gray:
				// Found a cycle: slice the stack from w's position.
				for i, x := range stack {
					if x == w {
						cycle = append(append([]string(nil), stack[i:]...), w)
						return true
					}
				}
			case white:
				if dfs(w) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[v] = black
		return false
	}
	vertices := make([]string, 0, len(g.Edges))
	for v := range g.Edges {
		vertices = append(vertices, v)
	}
	sort.Strings(vertices)
	for _, v := range vertices {
		if color[v] == white && dfs(v) {
			return true, cycle
		}
	}
	return false, nil
}

// TopoOrder returns a topological order of the vertices with
// dependencies FIRST: if the graph has an edge (v, w) — v depends on w —
// then w precedes v in the order. It errors if the graph has a cycle.
// The post-order DFS emits a vertex only after everything it reaches,
// which is what both consumers rely on: fire-once semantics fires the
// calls of already-settled services first (see fireOnceOrder), and the
// incremental scheduler seeds its worklist so upstream answers are in
// place before downstream calls first fire. (The comment here used to
// promise "dependencies last", contradicting the implementation; the
// behavior was always dependencies-first and is now the contract, pinned
// by TestTopoOrderDependenciesFirst.)
func (g *DepGraph) TopoOrder() ([]string, error) {
	if cyc, witness := g.HasCycle(); cyc {
		return nil, fmt.Errorf("core: dependency graph has a cycle: %v", witness)
	}
	visited := map[string]bool{}
	var order []string
	var dfs func(v string)
	dfs = func(v string) {
		if visited[v] {
			return
		}
		visited[v] = true
		for _, w := range g.Edges[v] {
			dfs(w)
		}
		order = append(order, v)
	}
	vertices := make([]string, 0, len(g.Edges))
	for v := range g.Edges {
		vertices = append(vertices, v)
	}
	sort.Strings(vertices)
	for _, v := range vertices {
		dfs(v)
	}
	return order, nil
}

// IsAcyclic reports whether the system's dependency graph is acyclic.
// Acyclic systems always terminate (Section 3.2).
func (s *System) IsAcyclic() (bool, error) {
	g, err := s.DependencyGraph()
	if err != nil {
		return false, err
	}
	cyc, _ := g.HasCycle()
	return !cyc, nil
}
