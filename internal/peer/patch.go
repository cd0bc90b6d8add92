package peer

import (
	"bytes"
	"encoding/hex"
	"fmt"

	"axml/internal/subsume"
	"axml/internal/tree"
)

// The in-memory patch: a digest-diff of two reduced trees, PruneSince on
// the sending side and ApplyPatch on the receiving one. It has no wire
// form — /axml/delta answers same, log or full — and no caller in the
// peer: it stays as the benchmark's in-memory peer.delta.* kernels until
// they move to the graft log.

// Patch is one node of a recursive digest-diff: the spine from the
// document root down to the subtrees that changed since the anchor
// state. Adds are whole new subtrees to merge in at this position;
// Spines descend into children that exist in the anchor but grew below.
// Base identifies (by subtree digest in the anchor state) which child of
// the receiver's tree a spine patch targets — the receiver refuses to
// guess: if no child carries that digest the whole apply fails.
type Patch struct {
	// Kind is the patched node's kind (Label or Func — Value nodes are
	// leaves and never carry a patch).
	Kind tree.Kind
	// Name is the patched node's marking.
	Name string
	// Base is the digest of this node's subtree in the anchor state.
	Base string
	// Spines are patches into children shared with the anchor.
	Spines []*Patch
	// Adds are new subtrees appended under this node since the anchor.
	Adds tree.Forest
}

// PruneSince computes the patch that carries cur's growth since anchor:
// Union(anchor, patch-materialized) is equivalent to cur, provided
// anchor ⊑ cur (monotone growth — the caller checks) and both trees are
// reduced (the system invariant). Children of cur whose digest also
// appears among the anchor node's children are dropped — the receiver
// provably has them; a child that shares its marking uniquely with one
// remaining anchor child is diffed recursively (the remaining anchor
// child is necessarily subsumed by it: anchor siblings are mutually
// incomparable, so it cannot hide under a dropped child); everything
// else ships whole. Returns nil when cur and anchor are identical.
func PruneSince(cur, anchor *tree.Node) *Patch {
	if cur == nil || anchor == nil || !cur.SameMarking(anchor) {
		return nil
	}
	if cur.Digest() == anchor.Digest() {
		return nil
	}
	return pruneNode(cur, anchor)
}

func pruneNode(cur, anchor *tree.Node) *Patch {
	p := &Patch{Kind: cur.Kind, Name: cur.Name, Base: digestHex(anchor)}

	// 1. Digest-matched children are already at the receiver: drop them.
	// Multiset matching — each anchor child covers at most one cur child.
	avail := make(map[tree.Hash][]*tree.Node, len(anchor.Children))
	for _, a := range anchor.Children {
		d := a.Digest()
		avail[d] = append(avail[d], a)
	}
	var restCur []*tree.Node
	for _, c := range cur.Children {
		d := c.Digest()
		if as := avail[d]; len(as) > 0 {
			avail[d] = as[:len(as)-1]
			continue
		}
		restCur = append(restCur, c)
	}
	var restAnchor []*tree.Node
	for _, as := range avail {
		restAnchor = append(restAnchor, as...)
	}

	// 2. A remaining pair sharing a marking uniquely on both sides is a
	// grown subtree: diff it recursively instead of shipping it whole.
	curByMark := make(map[tree.Marking][]*tree.Node)
	for _, c := range restCur {
		curByMark[c.Marking()] = append(curByMark[c.Marking()], c)
	}
	anchorByMark := make(map[tree.Marking][]*tree.Node)
	for _, a := range restAnchor {
		anchorByMark[a.Marking()] = append(anchorByMark[a.Marking()], a)
	}
	for _, c := range restCur {
		m := c.Marking()
		if c.Kind != tree.Value && len(curByMark[m]) == 1 && len(anchorByMark[m]) == 1 {
			p.Spines = append(p.Spines, pruneNode(c, anchorByMark[m][0]))
			continue
		}
		// 3. Ambiguous or brand-new: ship the whole subtree.
		p.Adds = append(p.Adds, c.Copy())
	}
	return p
}

// ApplyPatch merges a patch into the local tree in place, reproducing
// exactly what Union(local, fullRemote) would have produced, and reports
// whether anything changed. Every spine is resolved to the local child
// carrying its base digest before anything is mutated — a graft rewrites
// digests along its path, and an added subtree could coincidentally carry
// a spine's base digest. When any spine finds no target (the local tree
// diverged from the sender's anchor at that position), it returns
// errDiverged WITHOUT mutating anything: an apply is all-or-nothing.
// Running the grafts cannot detach a resolved node: only a sibling with
// the same marking could come to subsume it, and a spine that shares its
// marking with another spine or add of its patch node (PruneSince never
// builds one) is a mismatch too. The local tree must be reduced on entry;
// every graft leaves it reduced again, having repaired only its spine.
func ApplyPatch(local *tree.Node, p *Patch) (changed bool, err error) {
	if local == nil || p == nil {
		return false, nil
	}
	if local.Kind != p.Kind || local.Name != p.Name {
		return false, fmt.Errorf("peer: patch root %s does not match document root %s",
			p.Name, local.Name)
	}
	type graft struct {
		path []*tree.Node // the ancestor chain from the local root
		adds tree.Forest
	}
	var grafts []graft
	var resolve func(path []*tree.Node, p *Patch) bool
	resolve = func(path []*tree.Node, p *Patch) bool {
		if len(p.Adds) > 0 {
			grafts = append(grafts, graft{path, p.Adds})
		}
		for i, sp := range p.Spines {
			for _, o := range p.Spines[:i] {
				if o.Kind == sp.Kind && o.Name == sp.Name {
					return false
				}
			}
			for _, a := range p.Adds {
				if a.Kind == sp.Kind && a.Name == sp.Name {
					return false
				}
			}
			target := childByDigest(path[len(path)-1], sp.Base)
			if target == nil || target.Kind != sp.Kind || target.Name != sp.Name ||
				!resolve(append(path[:len(path):len(path)], target), sp) {
				return false
			}
		}
		return true
	}
	if !resolve([]*tree.Node{local}, p) {
		return false, errDiverged
	}
	for _, g := range grafts {
		fresh, _ := subsume.Graft(g.path, g.adds)
		changed = changed || len(fresh) > 0
	}
	return changed, nil
}

// childByDigest finds the child whose subtree digest renders as base.
// Reduced trees never hold two digest-equal siblings (they would subsume
// each other), so the match is unique when present. The base is decoded
// once and compared as bytes; only the exact rendering digestHex
// produces (16 lowercase hex characters) can match.
func childByDigest(n *tree.Node, base string) *tree.Node {
	b, err := hex.DecodeString(base)
	if err != nil || len(b) != 8 || hex.EncodeToString(b) != base {
		return nil
	}
	for _, c := range n.Children {
		if h := c.Digest(); bytes.Equal(h[:8], b) {
			return c
		}
	}
	return nil
}
