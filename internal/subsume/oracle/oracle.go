// Package oracle holds the definitional algorithms of Definition 2.2 and
// Proposition 2.1 — subsumption by bottom-up homomorphism search over
// string markings, reduction by all-pairs sibling pruning, least upper
// bound by concatenate-and-reduce — with none of package subsume's
// accelerations: no marking signatures, no digest short-circuit or digest
// grouping, no reduced-flag skip, no LUB shortcut. It is the reference
// the differential tests and the BenchmarkTree naive arms pin the fast
// paths against, and is imported by nothing else.
package oracle

import "axml/internal/tree"

// maxMemoEntries bounds the per-query node-pair memo, as in package
// subsume: beyond it results are still computed, just not recorded.
const maxMemoEntries = 1 << 20

// checker memoizes subsumption between node pairs within one top-level
// query.
type checker struct {
	memo map[[2]*tree.Node]bool
}

func newChecker() *checker {
	return &checker{memo: make(map[[2]*tree.Node]bool)}
}

// Subsumed reports whether a ⊆ b.
func Subsumed(a, b *tree.Node) bool {
	if a == nil || b == nil {
		return a == nil
	}
	return newChecker().sub(a, b)
}

// Equivalent reports whether a ⊆ b and b ⊆ a.
func Equivalent(a, b *tree.Node) bool {
	return Subsumed(a, b) && Subsumed(b, a)
}

// sub is the definitional bottom-up check: string marking compare, then
// every child of a must map into some child of b.
func (c *checker) sub(a, b *tree.Node) bool {
	if a == b {
		return true
	}
	key := [2]*tree.Node{a, b}
	if v, ok := c.memo[key]; ok {
		return v
	}
	ok := a.Kind == b.Kind && a.Name == b.Name
	if ok {
		for _, ca := range a.Children {
			found := false
			for _, cb := range b.Children {
				if c.sub(ca, cb) {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
	}
	if len(c.memo) < maxMemoEntries {
		c.memo[key] = ok
	}
	return ok
}

// Reduce returns the reduced version of t; the input is not modified.
func Reduce(t *tree.Node) *tree.Node {
	if t == nil {
		return nil
	}
	return ReduceInPlace(t.Copy())
}

// ReduceInPlace reduces t destructively and returns it. It neither
// trusts nor plants reduced marks (tree.KnownReduced); it does clear the
// memoized digest of every subtree it prunes in, so the tree stays usable
// by the production code afterwards.
func ReduceInPlace(t *tree.Node) *tree.Node {
	if t != nil {
		reduceChanged(t)
	}
	return t
}

func reduceChanged(t *tree.Node) bool {
	changed := false
	for _, c := range t.Children {
		if reduceChanged(c) {
			changed = true
		}
	}
	before := len(t.Children)
	t.Children = pruneSiblings(t.Children)
	if len(t.Children) != before {
		changed = true
	}
	if changed {
		t.InvalidateDigest()
	}
	return changed
}

// pruneSiblings is the definitional O(k²) sibling pruning, in place:
// every tree subsumed by another sibling goes, one representative (the
// first) of each equivalence class stays.
func pruneSiblings(children []*tree.Node) []*tree.Node {
	if len(children) <= 1 {
		return children
	}
	c := newChecker()
	keep := children[:0]
	for i, ci := range children {
		dominated := false
		for j, cj := range children {
			if i == j {
				continue
			}
			if c.sub(ci, cj) {
				// ci ⊆ cj. Drop ci unless they are equivalent and
				// ci comes first (keep the first representative).
				if c.sub(cj, ci) {
					if j < i {
						dominated = true
						break
					}
				} else {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			keep = append(keep, ci)
		}
	}
	return keep
}

// Union returns the least upper bound of two trees with the same root
// marking — that root over all children of both, reduced — or nil when
// the roots are incomparable. Inputs are not modified.
func Union(a, b *tree.Node) *tree.Node {
	if a == nil {
		return Reduce(b)
	}
	if b == nil {
		return Reduce(a)
	}
	if a.Kind != b.Kind || a.Name != b.Name {
		return nil
	}
	u := &tree.Node{Kind: a.Kind, Name: a.Name}
	for _, c := range a.Children {
		u.Children = append(u.Children, c.Copy())
	}
	for _, c := range b.Children {
		u.Children = append(u.Children, c.Copy())
	}
	return ReduceInPlace(u)
}
