// Index-accelerated pattern matching: a per-document inverted index from
// interned marking symbols to the document nodes carrying them, plus
// parent links, lets Match start from the rarest constant "anchor" of a
// pattern — the atom with the fewest candidate nodes — and verify the
// few candidate embeddings upward to the root, instead of walking the
// whole tree top-down. This is the anchor-driven, statistics-free
// ordering idea of the janus-datalog line of work applied to tree
// homomorphisms: candidate-list lengths are the only "statistics", and
// they are maintained exactly, for free, as the document grows.
package pattern

import (
	"math"
	"sync/atomic"

	"axml/internal/tree"
)

// Index is a per-document inverted index: every node of one document
// tree, keyed by its interned (Kind, Name) symbol, plus parent links.
// Documents only grow by least-upper-bound merge, so maintenance is
// append-only (AddSubtree) except for the local pruning a merge performs
// on newly-dominated siblings (RemoveSubtree); pruned nodes are deleted
// from the parent map immediately and swept from the candidate lists by
// an amortized rebuild.
//
// Concurrency: lookups and matches may run concurrently with each other
// (they only read, plus two atomic counters); AddSubtree/RemoveSubtree
// require exclusive access, which the engine provides by mutating only
// under the system's version-funnel write lock.
type Index struct {
	root  *tree.Node
	bySym map[tree.Sym][]*tree.Node
	// parent links every live indexed node to its parent (the root has no
	// entry). Detached nodes are removed, so "present in parent (or being
	// the root)" doubles as the liveness check candidate verification uses.
	parent map[*tree.Node]*tree.Node
	// live and dead count the indexed nodes and the detached entries not
	// yet swept from bySym lists; dead > live/2 triggers a rebuild.
	live, dead int

	// hits counts matches answered through the index (anchored matching or
	// an empty-candidate early reject); misses counts matches on this
	// index that fell back to the tree walk (no usable anchor, or an
	// anchor too common to beat the walk). Atomic; readable via Stats.
	hits, misses atomic.Uint64
}

// NewIndex builds the index of the tree rooted at root.
func NewIndex(root *tree.Node) *Index {
	ix := &Index{}
	ix.rebuild(root)
	return ix
}

func (ix *Index) rebuild(root *tree.Node) {
	ix.root = root
	ix.bySym = make(map[tree.Sym][]*tree.Node)
	ix.parent = make(map[*tree.Node]*tree.Node)
	ix.live, ix.dead = 0, 0
	root.Walk(func(n, parent *tree.Node) bool {
		s := n.Sym()
		ix.bySym[s] = append(ix.bySym[s], n)
		if parent != nil {
			ix.parent[n] = parent
		}
		ix.live++
		return true
	})
}

// Root returns the indexed document root.
func (ix *Index) Root() *tree.Node {
	if ix == nil {
		return nil
	}
	return ix.root
}

// Len returns the number of live indexed nodes.
func (ix *Index) Len() int {
	if ix == nil {
		return 0
	}
	return ix.live
}

// Stats returns the cumulative hit/miss counters: matches served through
// the index versus matches that fell back to the tree walk.
func (ix *Index) Stats() (hits, misses uint64) {
	if ix == nil {
		return 0, 0
	}
	return ix.hits.Load(), ix.misses.Load()
}

// AddSubtree indexes the subtree rooted at child, just appended under
// parent (which must already be indexed — the root or a live node).
func (ix *Index) AddSubtree(parent, child *tree.Node) {
	if ix == nil || child == nil {
		return
	}
	child.Walk(func(n, p *tree.Node) bool {
		s := n.Sym()
		ix.bySym[s] = append(ix.bySym[s], n)
		if p == nil {
			p = parent
		}
		ix.parent[n] = p
		ix.live++
		return true
	})
}

// RemoveSubtree unindexes the subtree rooted at child after a merge
// pruned it (a sibling newly subsumes it). Parent links are deleted
// eagerly — they are the liveness check — while the bySym lists keep the
// dead entries until Compact sweeps them. Safe to call while the
// document's child lists are mid-rewrite: only the detached subtree is
// walked.
func (ix *Index) RemoveSubtree(child *tree.Node) {
	if ix == nil || child == nil {
		return
	}
	child.Walk(func(n, _ *tree.Node) bool {
		if _, ok := ix.parent[n]; ok {
			delete(ix.parent, n)
			ix.live--
			ix.dead++
		}
		return true
	})
}

// Compact rebuilds the index when enough dead entries accumulated in the
// candidate lists to matter (they cost one failed liveness probe each at
// match time). Callers invoke it after a batch of removals, with the
// document in a consistent state — never mid-rewrite.
func (ix *Index) Compact() {
	if ix == nil {
		return
	}
	if ix.dead > 1024 && ix.dead > ix.live/2 {
		ix.rebuild(ix.root)
	}
}

// Selectivity estimates how selective a pattern is on this index: the
// length of the shortest candidate list over the pattern's constant
// nodes below the root (0 is maximally selective — the pattern cannot
// match). The root is skipped, as in plan: its image is the match root,
// and the root's marking occurs in every index it could match. A pattern
// with no such constant node, or a nil index, reports math.MaxInt (no
// information). Query planners use this to order conjunctive atoms.
func (ix *Index) Selectivity(p *Node) int {
	if ix == nil || p == nil {
		return math.MaxInt
	}
	best := math.MaxInt
	var walk func(n *Node)
	walk = func(n *Node) {
		if s, ok := anchorSym(n, nil); ok {
			if c := len(ix.bySym[s]); c < best {
				best = c
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range p.Children {
		walk(c)
	}
	return best
}

// planKind classifies how a match against this index should run.
type planKind uint8

const (
	planWalk     planKind = iota // no usable anchor: walk the tree
	planAnchored                 // enumerate the anchor's candidate list
	planReject                   // an anchor has zero candidates: no match
)

// anchorPlan is a chosen anchor: the pattern spine from the root to the
// anchor node (len ≥ 2; the anchor sits at depth len-1) and the interned
// symbol its images must carry.
type anchorPlan struct {
	spine []*Node
	sym   tree.Sym
	count int
}

// plan picks the rarest usable anchor of p: a constant node — or a
// variable already bound to an atom in base, which is just as selective —
// at depth ≥ 1, with the shortest candidate list. Depth-0 nodes cannot
// anchor (their image is the match root, checked in O(1) by bindMarking
// anyway). Returns planReject when some required marking has no
// occurrence at all, planWalk when no anchor exists or the best one is
// too common to beat the walk: the choice follows from candidate counts
// observed here, so both strategies stay and nothing selects them from
// outside.
func (ix *Index) plan(p *Node, base Assignment) (anchorPlan, planKind) {
	best := anchorPlan{count: -1}
	var path []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		path = append(path, n)
		if len(path) > 1 {
			if s, ok := anchorSym(n, base); ok {
				c := len(ix.bySym[s])
				if best.count < 0 || c < best.count {
					best = anchorPlan{spine: append([]*Node(nil), path...), sym: s, count: c}
				}
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
		path = path[:len(path)-1]
	}
	walk(p)
	switch {
	case best.count < 0:
		return best, planWalk
	case best.count == 0:
		return best, planReject
	case best.count*4 >= ix.live+ix.dead:
		// The rarest anchor covers a quarter of the document: candidate
		// enumeration would approximate the tree walk with extra map
		// traffic. Let the walk run.
		return best, planWalk
	default:
		return best, planAnchored
	}
}

// anchorSym returns the document symbol images of n must carry, when n is
// selective: a constant, or an atom variable bound in base.
func anchorSym(n *Node, base Assignment) (tree.Sym, bool) {
	if n.Kind == VarTree {
		return 0, false
	}
	if !n.Kind.IsVar() {
		return tree.Intern(n.Kind.treeKind(), n.Name), true
	}
	b, ok := base[n.Name]
	if !ok || b.Tree != nil {
		return 0, false
	}
	return tree.Intern(n.Kind.treeKind(), b.Atom), true
}

// spineTo resolves the document spine a candidate anchor image forces:
// the parent chain c, parent(c), ... up to the match root d (the indexed
// root). k is the anchor depth (≥ 1); the returned slice has length k+1
// with dspine[0] = d and dspine[k] = c. Resolution fails when the chain
// leaves the index (c was pruned by a merge), is too short, or does not
// end at d.
func (ix *Index) spineTo(c *tree.Node, k int, d *tree.Node) ([]*tree.Node, bool) {
	dspine := make([]*tree.Node, k+1)
	dspine[0] = d
	dspine[k] = c
	x := c
	for i := k - 1; i >= 1; i-- {
		p, ok := ix.parent[x]
		if !ok {
			return nil, false
		}
		dspine[i] = p
		x = p
	}
	if p, ok := ix.parent[x]; ok && p == d {
		return dspine, true
	}
	return nil, false
}

// Match is MatchUnder with an empty base.
func (ix *Index) Match(p *Node, d *tree.Node) []Assignment {
	return ix.MatchUnder(p, d, nil)
}

// MatchUnder is MatchUnderSince with no baseline to track against: the
// assignment set alone.
func (ix *Index) MatchUnder(p *Node, d *tree.Node, base Assignment) []Assignment {
	return Assignments(ix.MatchUnderSince(p, d, base, math.MaxUint64))
}

// MatchUnderSince is the one matching entry point: every assignment
// extending base under which p embeds into d with the pattern root on d,
// deduplicated, each carrying New=true iff some embedding witnessing it
// maps a pattern node onto a document node with Stamp > since (for tree
// variables, onto a subtree whose MaxStamp exceeds since). No stamp
// exceeds since = math.MaxUint64, the "no baseline" convention the plain
// Match functions use: every flag is false and no freshness work is done.
// The base assignment is not modified.
//
// When the match root is the indexed document root and p has a selective
// anchor, only the anchor's candidate embeddings are verified; otherwise
// the tree walk runs. The root restriction is deliberate — a match rooted
// below the document root (a deep context, a synthetic input node) scans
// a subtree that may be far smaller than the anchor's document-wide
// candidate list, where the walk already wins. A nil *Index degrades to
// the walk, so callers thread optional indexes without branching. The
// plan only changes the work done, never the result.
func (ix *Index) MatchUnderSince(p *Node, d *tree.Node, base Assignment, since uint64) []Stamped {
	if p == nil || d == nil {
		return nil
	}
	if base == nil {
		base = Assignment{}
	}
	if ix != nil && d == ix.root {
		plan, kind := ix.plan(p, base)
		switch kind {
		case planReject:
			ix.hits.Add(1)
			return nil
		case planAnchored:
			ix.hits.Add(1)
			k := len(plan.spine) - 1
			var results []Stamped
			for _, c := range ix.bySym[plan.sym] {
				dspine, ok := ix.spineTo(c, k, d)
				if !ok {
					continue
				}
				results = append(results, matchSpine(plan.spine, dspine, 0, Stamped{Asn: base}, since)...)
			}
			return DedupStamped(results)
		}
	}
	if ix != nil {
		ix.misses.Add(1)
	}
	return DedupStamped(matchNode(p, d, Stamped{Asn: base}, since))
}

// matchSpine matches the pattern spine against the forced document spine:
// pspine[i] must map exactly onto dspine[i] (the anchor's image chain is
// unique because every pattern edge descends exactly one level), while
// every off-spine pattern child matches freely — possibly onto the spine
// child too, exactly as in tree subsumption. Freshness is tracked as in
// matchNode.
func matchSpine(pspine []*Node, dspine []*tree.Node, i int, st Stamped, since uint64) []Stamped {
	p, d := pspine[i], dspine[i]
	next, ok := bindMarking(p, d, st.Asn)
	if !ok {
		return nil
	}
	st = Stamped{Asn: next, New: st.New || d.Stamp > since}
	if i == len(pspine)-1 {
		// The anchor itself: its pattern children (if any) match freely
		// below its image.
		return matchChildren(p.Children, d, []Stamped{st}, since)
	}
	// Forced spine child first — it is the selective one — then the
	// remaining children against all of d's children.
	sts := matchSpine(pspine, dspine, i+1, st, since)
	if len(sts) == 0 {
		return nil
	}
	if rest := offSpine(p, pspine[i+1]); len(rest) > 0 {
		sts = matchChildren(rest, d, sts, since)
	}
	return sts
}

// offSpine returns p's children minus one occurrence (by identity) of the
// spine child.
func offSpine(p *Node, spineChild *Node) []*Node {
	for i, c := range p.Children {
		if c == spineChild {
			rest := make([]*Node, 0, len(p.Children)-1)
			rest = append(rest, p.Children[:i]...)
			return append(rest, p.Children[i+1:]...)
		}
	}
	return p.Children
}
