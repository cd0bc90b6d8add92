// Package subsume implements tree subsumption, equivalence, reduction and
// least upper bounds for AXML documents (Definition 2.2 and Proposition 2.1
// of the paper).
//
// A document d1 is subsumed by d2 (d1 ⊆ d2) when there is a mapping h from
// the nodes of d1 to those of d2 sending root to root, preserving
// parent/child edges and markings. On finite trees the existence of such a
// homomorphism is decided bottom-up in polynomial time: n1 maps into n2 iff
// their markings agree and every child of n1 maps into some child of n2.
//
// Reduction removes subtrees subsumed by a sibling; Proposition 2.1(2)
// guarantees a unique reduced version up to isomorphism, which this package
// computes in polynomial time.
//
// Documents are identified with their reduced versions, and a reduced
// tree grows in exactly one way: Graft appends a forest under one node and
// repairs reducedness along that node's ancestor path only. Every writer
// of a system document (package core's invocation merge, Append and
// Restore) and the least upper bound Union are that one function.
//
// Performance: markings are compared through interned symbols (tree.Sym,
// one word instead of a string) and every check short-circuits on equal
// memoized subtree digests (tree.Digest): equal digests mean isomorphic
// subtrees, which subsume each other by the identity homomorphism. The
// digest short-circuit is what lets reduction and Graft share structure
// across million-node documents instead of re-walking it. No check is
// all-pairs over wide siblings: a wide node against a wide witness maps
// digest-equal children through a digest index, and sibling pruning and
// Graft's scans reject a pair whose marking signatures rule subsumption
// out before checking it. The definitional algorithms these fast paths
// must agree with live in package subsume/oracle, which only tests and
// benchmarks import.
package subsume

import (
	"axml/internal/tree"
)

// Subsumed reports whether a ⊆ b.
func Subsumed(a, b *tree.Node) bool {
	if a == nil || b == nil {
		return a == nil
	}
	return sub(a, b)
}

// Equivalent reports whether a ⊆ b and b ⊆ a (the paper's d1 ≡ d2).
func Equivalent(a, b *tree.Node) bool {
	return Subsumed(a, b) && Subsumed(b, a)
}

// wideChildren is the fan-out above which sub indexes the witness's
// children by digest and pruneSiblings groups siblings through a map.
const wideChildren = 16

// sub decides a ⊆ b bottom-up. Trees are acyclic so the recursion is
// well-founded, and within one query a pair is only ever reached through
// its unique parent pair, so no answer is worth recording.
func sub(a, b *tree.Node) bool {
	if a == b {
		return true
	}
	if a.Sym() != b.Sym() {
		return false
	}
	if len(a.Children) == 0 {
		return true
	}
	// Equal digests mean isomorphic subtrees: subsumed via the identity.
	// The digests are memoized per node (tree.Digest), so across one
	// reduction or merge each subtree is hashed at most once.
	if a.Digest() == b.Digest() {
		return true
	}
	// Wide against wide: once a's first child has mapped by scan, b's
	// children are indexed by digest, and a child of a with a
	// digest-equal witness maps by the identity in O(1); only the rest
	// scan. The index is built lazily: a check failing at the first child
	// (most sibling comparisons of a reduction) allocates nothing.
	var index map[tree.Hash]struct{}
	for i, ca := range a.Children {
		if _, ok := index[ca.Digest()]; ok {
			continue
		}
		if !subAny(ca, b.Children, nil) {
			return false
		}
		if i == 0 && len(a.Children) > wideChildren && len(b.Children) > wideChildren {
			index = make(map[tree.Hash]struct{}, len(b.Children))
			for _, cb := range b.Children {
				index[cb.Digest()] = struct{}{}
			}
		}
	}
	return true
}

// sigDepth caps the levels a signature summarizes, so reducing a deep
// chain costs O(k) per level and not O(depth) per sibling.
const sigDepth = 4

// signature is a 64-bit Bloom summary of the (depth, marking) pairs in
// the top sigDepth levels of n. A homomorphism sends root to root and
// preserves edges and markings, hence depth, so a ⊆ b implies
// signature(a) &^ signature(b) == 0: a pair failing that test is rejected
// without the check, and the answer never changes.
func signature(n *tree.Node) uint64 {
	return sigAt(n, 0)
}

func sigAt(n *tree.Node, depth uint64) uint64 {
	h := (uint64(n.Sym()) | depth<<32) * 0x9e3779b97f4a7c15
	s := uint64(1) << (h >> 58)
	if depth+1 < sigDepth {
		for _, c := range n.Children {
			s |= sigAt(c, depth+1)
		}
	}
	return s
}

// Reduce returns the reduced version of t: the unique (up to isomorphism)
// equivalent tree with no subtree subsumed by a sibling. The input is not
// modified.
func Reduce(t *tree.Node) *tree.Node {
	if t == nil {
		return nil
	}
	return ReduceInPlace(t.Copy())
}

// ReduceInPlace reduces t destructively and returns it. Children slices
// are rewritten; subtrees that survive are themselves reduced.
func ReduceInPlace(t *tree.Node) *tree.Node {
	if t != nil {
		reduceChanged(t)
	}
	return t
}

// reduceChanged reduces t bottom-up and reports whether anything in the
// subtree was pruned — in which case t's memoized digest (which covers
// the whole subtree) is stale and gets cleared. An untouched subtree
// keeps its memo.
//
// Fast path: a subtree carrying the reduced flag (tree.KnownReduced) was
// verified reduced and has not been mutated since — the flag rides the
// digest invalidation contract — so the whole recursion is skipped.
// Reduction is idempotent, which makes the steady-state re-reduce of a
// monotone system (most of the document untouched since the last merge)
// O(changed spine) instead of O(document).
func reduceChanged(t *tree.Node) bool {
	if t.KnownReduced() {
		return false
	}
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
	t.MarkReduced()
	return changed
}

// pruneSiblings removes from the multiset every tree subsumed by another
// sibling, keeping one representative of each equivalence class. Children
// are assumed individually reduced.
//
// Fast path: siblings are first grouped by memoized digest — equal
// digests are isomorphic subtrees, so every group keeps exactly its first
// member and drops the rest in O(1) per duplicate. Only the distinct
// representatives then run the pairwise subsumption test. Merging a large
// result forest into a document that already contains most of it (the
// steady state of a monotone system) collapses to the digest grouping.
func pruneSiblings(children []*tree.Node) []*tree.Node {
	if len(children) <= 1 {
		return children
	}
	// Group by digest, keeping first representatives in order. Small
	// sibling sets — the overwhelmingly common case — dedup by scanning
	// the representatives already kept: a handful of 32-byte compares
	// beats allocating a map at every node of a reduction.
	reps := children[:0]
	if len(children) <= wideChildren {
	dedup:
		for _, c := range children {
			d := c.Digest()
			for _, r := range reps {
				if r.Digest() == d {
					continue dedup
				}
			}
			reps = append(reps, c)
		}
	} else {
		seen := make(map[tree.Hash]bool, len(children))
		for _, c := range children {
			d := c.Digest()
			if seen[d] {
				continue
			}
			seen[d] = true
			reps = append(reps, c)
		}
	}
	if len(reps) <= 1 {
		return reps
	}
	return pruneSiblingsPairwise(reps)
}

// pruneSiblingsPairwise is the all-pairs sibling pruning over the given
// (deduplicated) children, in place. Each sibling's signature is computed
// once, and a pair whose signatures rule subsumption out skips the check:
// k² word compares, with a real check only where one is possible.
func pruneSiblingsPairwise(children []*tree.Node) []*tree.Node {
	sigs := make([]uint64, len(children))
	for i, c := range children {
		sigs[i] = signature(c)
	}
	keep := children[:0]
	for i, ci := range children {
		dominated := false
		for j, cj := range children {
			if i == j || sigs[i]&^sigs[j] != 0 {
				continue
			}
			if sub(ci, cj) {
				// ci ⊆ cj. Drop ci unless they are equivalent and
				// ci comes first (keep the first representative).
				if sigs[j]&^sigs[i] == 0 && sub(cj, ci) {
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
			sigs[len(keep)-1] = sigs[i] // keep sigs aligned with children
		}
	}
	return keep
}

// IsReduced reports whether t contains no subtree subsumed by a sibling.
func IsReduced(t *tree.Node) bool {
	if t == nil {
		return true
	}
	for i, ci := range t.Children {
		for j, cj := range t.Children {
			if i != j && sub(ci, cj) && !(sub(cj, ci) && j > i) {
				return false
			}
		}
	}
	for _, ci := range t.Children {
		if !IsReduced(ci) {
			return false
		}
	}
	return true
}

// Graft is the one way a reduced tree grows (Section 2.2): it appends the
// forest under the last node of path — the ancestor chain root..attach —
// and repairs reducedness locally, which yields the least upper bound of
// the tree and the appended data. It returns the trees actually appended
// (reduced copies owned by the tree; the inputs are not modified) and the
// subtrees reduction detached on their account. No fresh tree means the
// tree was not touched; any fresh tree means it strictly grew — a
// homomorphism from the grown tree back into the old one would have to
// send the attach path onto a diverging sibling path, a sibling
// subsumption reducedness forbids — so callers need no before/after
// comparison.
//
// Precondition: the tree is reduced. Then the repair is local: incoming
// trees digest-equal to an existing child are dropped before anything is
// copied (re-merging data the tree holds — a journal replay, a union of
// overlapping documents — is O(siblings)), as are those an existing child
// subsumes; the rest are reduced and made mutually irredundant; existing
// children a fresh tree subsumes are detached; and up the path the grown
// child may newly subsume siblings (it cannot become subsumed: it only
// gained information), which are detached. Nothing else is affected.
//
// Graft keeps the digest invalidation contract itself — it clears exactly
// the memos of root..attach — and marks those nodes reduced again, so a
// later Reduce or Union of the tree skips it.
func Graft(path []*tree.Node, forest tree.Forest) (fresh tree.Forest, detached []*tree.Node) {
	if len(forest) == 0 {
		return nil, nil // the common delta evaluation: nothing new, nothing to index
	}
	attach := path[len(path)-1]
	known := make(map[tree.Hash]struct{}, len(attach.Children))
	for _, e := range attach.Children {
		known[e.Digest()] = struct{}{}
	}
	var rest tree.Forest
	sigs := signatures(attach.Children, len(forest))
	for _, t := range forest {
		if _, dup := known[t.Digest()]; !dup && !subAny(t, attach.Children, sigs) {
			rest = append(rest, t)
		}
	}
	fresh = ReduceForest(rest)
	if len(fresh) == 0 {
		return nil, nil
	}
	kept := attach.Children[:0]
	sigs = signatures(fresh, len(attach.Children))
	for _, e := range attach.Children {
		if subAny(e, fresh, sigs) {
			detached = append(detached, e)
		} else {
			kept = append(kept, e)
		}
	}
	attach.Children = append(kept, fresh...)
	// The child lists along root..attach changed (or are about to, in the
	// sibling pruning below): their memoized subtree digests are stale.
	tree.InvalidateDigestPath(path)
	for i := len(path) - 2; i >= 0; i-- {
		ancestor, grown := path[i], path[i+1]
		kept := ancestor.Children[:0]
		for _, sib := range ancestor.Children {
			if sib != grown && sub(sib, grown) {
				detached = append(detached, sib)
			} else {
				kept = append(kept, sib)
			}
		}
		ancestor.Children = kept
	}
	for _, n := range path {
		n.MarkReduced()
	}
	return fresh, detached
}

// subAny reports whether t is subsumed by some tree of the list. With the
// list's signatures, a pair they rule out is skipped (see signature).
func subAny(t *tree.Node, list []*tree.Node, sigs []uint64) bool {
	var st uint64
	if sigs != nil {
		st = signature(t)
	}
	for i, o := range list {
		if (sigs == nil || st&^sigs[i] == 0) && sub(t, o) {
			return true
		}
	}
	return false
}

// signatures signs list for n trees to be checked against it, when both
// are several: otherwise signing costs more than the checks it skips.
func signatures(list []*tree.Node, n int) []uint64 {
	if n < 2 || len(list) < 2 {
		return nil
	}
	sigs := make([]uint64, len(list))
	for i, o := range list {
		sigs[i] = signature(o)
	}
	return sigs
}

// Union returns the least upper bound d ∪ d' of two trees with the same
// root marking: a tree with that root and all children subtrees of both,
// reduced. It returns nil if the roots are incomparable (different
// markings). Inputs are not modified.
func Union(a, b *tree.Node) *tree.Node {
	if a == nil {
		return Reduce(b)
	}
	if b == nil {
		return Reduce(a)
	}
	if !a.SameMarking(b) {
		return nil
	}
	u := Reduce(a)
	Graft([]*tree.Node{u}, b.Children)
	return u
}

// ForestSubsumed reports whether forest a is subsumed by forest b: every
// tree of a is subsumed by some tree of b.
func ForestSubsumed(a, b tree.Forest) bool {
	for _, ta := range a {
		found := false
		for _, tb := range b {
			if Subsumed(ta, tb) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ForestEquivalent reports mutual forest subsumption.
func ForestEquivalent(a, b tree.Forest) bool {
	return ForestSubsumed(a, b) && ForestSubsumed(b, a)
}

// ReduceForest returns a reduced version of the forest: every tree reduced
// and no tree subsumed by another (one representative per equivalence
// class). Inputs are not modified.
func ReduceForest(f tree.Forest) tree.Forest {
	reduced := make(tree.Forest, len(f))
	for i, t := range f {
		reduced[i] = Reduce(t)
	}
	kept := pruneSiblings(reduced)
	out := make(tree.Forest, len(kept))
	copy(out, kept)
	return out
}
