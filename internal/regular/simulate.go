package regular

import "axml/internal/tree"

// Simulates reports whether the (possibly infinite) tree unfolding at a is
// subsumed by the unfolding at b: there is a marking-preserving
// homomorphism from unfold(a) into unfold(b). On cyclic graphs this is the
// greatest simulation relation, computed coinductively: start from all
// marking-compatible pairs and strip pairs whose children cannot be
// matched, until a fixpoint (the standard Henzinger-Henzinger-Kopke
// refinement, referenced by the paper's Proposition 2.1 proof).
func Simulates(a, b *Vertex) bool {
	if a == nil || b == nil {
		return a == nil
	}
	av := collect(a)
	bv := collect(b)
	// rel[pair] == true means "still possibly simulated". Pairs are
	// keyed by pointer so vertices of two independent graphs (whose IDs
	// overlap) stay distinct.
	type pair struct{ x, y *Vertex }
	rel := map[pair]bool{}
	for _, x := range av {
		for _, y := range bv {
			if x.Kind == y.Kind && x.Name == y.Name {
				rel[pair{x, y}] = true
			}
		}
	}
	for {
		changed := false
		for p, ok := range rel {
			if !ok {
				continue
			}
			good := true
			for _, cx := range p.x.Children {
				found := false
				for _, cy := range p.y.Children {
					if rel[pair{cx, cy}] {
						found = true
						break
					}
				}
				if !found {
					good = false
					break
				}
			}
			if !good {
				rel[p] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return rel[pair{a, b}]
}

// GraphEquivalent reports mutual simulation of the two unfoldings (the
// paper's ≡ on possibly-infinite documents).
func GraphEquivalent(a, b *Vertex) bool {
	return Simulates(a, b) && Simulates(b, a)
}

// SimulatesTree reports whether the finite tree t is subsumed by the
// unfolding at v.
func SimulatesTree(t *tree.Node, v *Vertex) bool {
	if t == nil {
		return true
	}
	if v == nil {
		return false
	}
	g := &Graph{}
	tv := g.fromTree(t)
	return Simulates(tv, v)
}

// SimulatedByTree reports whether the (possibly infinite) unfolding at v
// is subsumed by the finite tree t. An infinite unfolding can never be
// subsumed by a finite tree (homomorphisms preserve depth), and the
// simulation fixpoint detects that automatically.
func SimulatedByTree(v *Vertex, t *tree.Node) bool {
	if v == nil {
		return true
	}
	if t == nil {
		return false
	}
	g := &Graph{}
	tv := g.fromTree(t)
	return Simulates(v, tv)
}

// ProjectData returns a fresh graph component mirroring the one reachable
// from v with every function vertex (and its parameter subtree) removed —
// the data content of the represented document, matching the comparison
// of possible answers in Section 4. Cycles are preserved. It returns nil
// when v itself is a function vertex.
func ProjectData(v *Vertex) *Vertex {
	if v == nil || v.Kind == tree.Func {
		return nil
	}
	clones := map[*Vertex]*Vertex{}
	id := 0
	var build func(w *Vertex) *Vertex
	build = func(w *Vertex) *Vertex {
		if c, ok := clones[w]; ok {
			return c
		}
		c := &Vertex{ID: id, Kind: w.Kind, Name: w.Name, mark: w.mark}
		id++
		clones[w] = c
		for _, ch := range w.Children {
			if ch.Kind == tree.Func {
				continue
			}
			c.Children = append(c.Children, build(ch))
		}
		return c
	}
	return build(v)
}

// collect gathers the vertices reachable from v.
func collect(v *Vertex) []*Vertex {
	var out []*Vertex
	seen := map[*Vertex]bool{}
	var visit func(w *Vertex)
	visit = func(w *Vertex) {
		if seen[w] {
			return
		}
		seen[w] = true
		out = append(out, w)
		for _, c := range w.Children {
			visit(c)
		}
	}
	visit(v)
	return out
}
