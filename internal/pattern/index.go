// Index-accelerated pattern matching: a per-document inverted index from
// (Kind, Name) markings to the document nodes carrying them, plus
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
	"slices"
	"sync"
	"sync/atomic"

	"axml/internal/tree"
)

// Index is a per-document inverted index: every node of one document
// tree, keyed by its (Kind, Name) marking, plus parent links. It is
// lazy: NewIndex records the root, and the first reader that needs the
// tables (a match anchored at the root, Selectivity, Len) builds them.
// Documents only grow by least-upper-bound merge, so maintenance of a
// built index is append-only (AddSubtree) except for the local pruning a
// merge performs on newly-dominated siblings (RemoveSubtree); pruned
// nodes are deleted from the parent map immediately and swept from the
// candidate lists by an amortized rebuild.
//
// Concurrency: lookups and matches may run concurrently with each other
// (they only read, plus the once-only build and atomic counters);
// AddSubtree/RemoveSubtree/Compact require exclusive access, which the
// engine provides by mutating only under the system's version-funnel
// write lock.
type Index struct {
	root *tree.Node
	// once runs the build on the first read of the tables; built records
	// it. Maintenance reads built unsynchronized: it runs under the
	// system's write side, which excludes every reader, so a build (a
	// reader's) has finished before it or not started. Until the build
	// there is nothing to maintain: it indexes the tree as it then stands.
	once  sync.Once
	built bool

	byMarking map[tree.Marking][]*tree.Node
	// parent links every live indexed node to its parent (the root has no
	// entry). Detached nodes are removed, so "present in parent (or being
	// the root)" doubles as the liveness check candidate verification uses.
	parent map[*tree.Node]*tree.Node
	// live and dead count the indexed nodes and the detached entries not
	// yet swept from byMarking lists; dead > live/2 triggers a rebuild.
	live, dead int

	// fresh logs the roots AddSubtree indexed, in stamp order, for
	// MatchDelta; it misses the fresh roots of baselines below from. top
	// is the largest stamp indexed.
	fresh     []*tree.Node
	from, top uint64

	// hits counts matches answered through the index (anchored matching or
	// an empty-candidate early reject); misses counts matches on this
	// index that fell back to the tree walk (no usable anchor, or an
	// anchor too common to beat the walk); builds counts the first-use
	// builds (0 or 1). Atomic; readable via Stats and Builds.
	hits, misses, builds atomic.Uint64
}

// NewIndex returns the index of the tree rooted at root, unbuilt: it
// costs nothing until a match reads its tables.
func NewIndex(root *tree.Node) *Index { return &Index{root: root} }

// tables builds the index on first use. Baselines older than the tree
// as built walk, as after any rebuild of a document that grew unlogged.
func (ix *Index) tables() {
	ix.once.Do(func() {
		ix.rebuild()
		ix.from, ix.built = ix.top, true
		ix.builds.Add(1)
	})
}

// rebuild indexes the tree afresh (the parent map sized by the node count,
// byMarking left to grow); the log keeps its live entries.
func (ix *Index) rebuild() {
	root := ix.root
	ix.byMarking = make(map[tree.Marking][]*tree.Node)
	ix.parent = make(map[*tree.Node]*tree.Node, root.Size()-1)
	ix.live, ix.dead = 0, 0
	root.Walk(func(n, parent *tree.Node) bool {
		m := n.Marking()
		ix.byMarking[m] = append(ix.byMarking[m], n)
		if parent != nil {
			ix.parent[n] = parent
		}
		ix.live++
		ix.top = max(ix.top, n.Stamp)
		return true
	})
	ix.fresh = slices.DeleteFunc(ix.fresh, func(f *tree.Node) bool { return ix.parent[f] == nil })
}

// Root returns the indexed document root.
func (ix *Index) Root() *tree.Node {
	if ix == nil {
		return nil
	}
	return ix.root
}

// Len returns the number of live indexed nodes, building the index.
func (ix *Index) Len() int {
	if ix == nil {
		return 0
	}
	ix.tables()
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

// Builds reports whether a reader built the index: 1 once it has, else 0.
func (ix *Index) Builds() uint64 {
	if ix == nil {
		return 0
	}
	return ix.builds.Load()
}

// AddSubtree indexes and logs the subtree rooted at child, just appended
// under parent (which must already be indexed — the root or a live node).
// An unbuilt index has nothing to add to.
func (ix *Index) AddSubtree(parent, child *tree.Node) {
	if ix == nil || !ix.built || child == nil {
		return
	}
	if child.Stamp < ix.top {
		ix.from = ix.top // out of stamp order: older baselines walk
	}
	ix.top = max(ix.top, child.Stamp)
	ix.fresh = append(ix.fresh, child)
	child.Walk(func(n, p *tree.Node) bool {
		m := n.Marking()
		ix.byMarking[m] = append(ix.byMarking[m], n)
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
// eagerly — they are the liveness check — while the byMarking lists keep the
// dead entries until Compact sweeps them. Safe to call while the
// document's child lists are mid-rewrite: only the detached subtree is
// walked.
func (ix *Index) RemoveSubtree(child *tree.Node) {
	if ix == nil || !ix.built || child == nil {
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
	if ix != nil && ix.built && ix.dead > 1024 && ix.dead > ix.live/2 {
		ix.rebuild()
	}
}

// chain resolves into buf the path root..f of an indexed node: ok when f
// is live and no ancestor is stamped after since (a logged root's fresh
// ancestor has its own entry).
func (ix *Index) chain(f *tree.Node, since uint64, buf []*tree.Node) ([]*tree.Node, bool) {
	buf = append(buf[:0], f)
	for x := f; x != ix.root; {
		p, ok := ix.parent[x]
		if !ok || p.Stamp > since {
			return buf, false
		}
		buf, x = append(buf, p), p
	}
	slices.Reverse(buf)
	return buf, true
}

// Selectivity estimates how selective a compiled pattern is on this
// index: the length of the shortest candidate list over the pattern's
// constant nodes below the root, as plan counts them (0 is maximally
// selective — the pattern cannot match). A pattern with no such constant
// node, or a nil index, reports math.MaxInt (no information). Query
// planners use this to order conjunctive atoms.
func (ix *Index) Selectivity(c *Compiled) int {
	if ix == nil || c.root == nil {
		return math.MaxInt
	}
	if best, _ := ix.plan(c.root, ix.root, Row{}); best.count >= 0 {
		return best.count
	}
	return math.MaxInt
}

// planKind classifies how a match against this index should run.
type planKind uint8

const (
	planWalk     planKind = iota // no usable anchor: walk the tree
	planAnchored                 // enumerate the anchor's candidate list
	planReject                   // an anchor has zero candidates: no match
)

// anchorPlan is a chosen anchor: the pattern spine from the root to the
// anchor node (len ≥ 2; the anchor sits at depth len-1) and the marking
// its images must carry.
type anchorPlan struct {
	spine []*cnode
	mark  tree.Marking
	count int
}

// plan picks the rarest usable anchor of p for a match rooted at d (only
// the indexed root anchors; a nil index or another root walks): a
// constant node — or a variable already bound to an atom in r, which is
// just as selective — at depth ≥ 1, with the shortest candidate list.
// Depth-0 nodes cannot anchor (their image is the match root, checked in
// O(1) by bind anyway). Returns planReject when some required marking has
// no occurrence at all, planWalk when no anchor exists or the best one is
// too common to beat the walk: the choice follows from candidate counts
// observed here, so both strategies stay and nothing selects them from
// outside.
func (ix *Index) plan(p *cnode, d *tree.Node, r Row) (anchorPlan, planKind) {
	best := anchorPlan{count: -1}
	if ix == nil || d != ix.root {
		return best, planWalk
	}
	ix.tables()
	var path []*cnode
	var walk func(n *cnode)
	walk = func(n *cnode) {
		path = append(path, n)
		if len(path) > 1 {
			if m, ok := anchorMarking(n, r); ok {
				c := len(ix.byMarking[m])
				if best.count < 0 || c < best.count {
					best = anchorPlan{spine: append([]*cnode(nil), path...), mark: m, count: c}
				}
			}
		}
		for _, c := range n.kids {
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

// anchorMarking returns the marking images of n must carry, when n is
// selective: a constant, or an atom variable bound in r (a row of no
// slots binds none).
func anchorMarking(n *cnode, r Row) (tree.Marking, bool) {
	if n.slot < 0 {
		return n.mark, true
	}
	if n.kind == VarTree || n.slot >= len(r.s) || r.s[n.slot] == nil || r.slab.vars.kinds[n.slot] == VarTree {
		return tree.Marking{}, false
	}
	return tree.Marking{Kind: n.kind.treeKind(), Name: r.s[n.slot].Name}, true
}
