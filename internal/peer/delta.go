package peer

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"axml/internal/subsume"
	"axml/internal/tree"
)

// Delta replication. Prop 3.1 monotonicity means a peer's documents only
// grow by least-upper-bound merge, so replication never needs to ship a
// whole tree: a subtree delta since the last acknowledged digest is a
// sound CRDT-style update. The server keeps a bounded cache of recent
// document states keyed by their digest (the anchors). A receiver asks
// "give me what changed since digest D"; when the anchor is cached the
// server answers with a patch — a recursive digest-diff of the current
// tree against the anchor, carrying only the spine down to divergent
// subtrees plus the new subtrees themselves — and when it is not (cache
// rotated out, receiver never synced, digests disagree) it falls back to
// the full tree. Applying a patch is a digest-targeted in-place merge
// that reproduces Union(local, fullRemote) exactly, or reports that it
// cannot (the receiver's tree diverged at a spine position), in which
// case the receiver falls back to a full pull. Every fallback is safe:
// the delta path is an optimization over the same LUB merge, never a
// different semantics.

// Delta wire element names and attributes (reserved: AXML labels cannot
// contain ':').
const (
	elemDelta = "ax:delta"
	elemPatch = "ax:patch"
	attrMode  = "mode"
	attrFrom  = "from"
	attrTo    = "to"
	attrKind  = "kind"
	attrBase  = "base"
)

// Delta response modes.
const (
	// DeltaSame: the receiver's anchor is the current state; no payload.
	DeltaSame = "same"
	// DeltaPatch: the payload is a patch against the anchor state.
	DeltaPatch = "delta"
	// DeltaFull: the payload is the full tree (anchor unknown or unusable).
	DeltaFull = "full"
)

// Delta is one delta-replication wire record: the answer to "what
// changed in document Doc since state From".
type Delta struct {
	// Doc is the document name.
	Doc string
	// Mode is DeltaSame, DeltaPatch or DeltaFull.
	Mode string
	// From is the anchor digest the patch is computed against (DeltaPatch
	// only; empty otherwise).
	From string
	// To is the digest of the document state this record brings the
	// receiver up to — the receiver's next anchor.
	To string
	// Full carries the whole tree in DeltaFull mode.
	Full *tree.Node
	// Patch carries the digest-diff in DeltaPatch mode.
	Patch *Patch
}

// Patch is one node of a recursive digest-diff: the spine from the
// document root down to the subtrees that changed since the anchor
// state. Adds are whole new subtrees to merge in at this position;
// Spines descend into children that exist in the anchor but grew below.
// Base identifies (by subtree digest in the anchor state) which child of
// the receiver's tree a spine patch targets — the receiver refuses to
// guess: if no child carries that digest the whole apply fails and the
// caller falls back to a full pull.
type Patch struct {
	// Kind is the patched node's kind (Label or Func — Value nodes are
	// leaves and never carry a patch).
	Kind tree.Kind
	// Name is the patched node's marking.
	Name string
	// Base is the digest of this node's subtree in the anchor state (for
	// the root patch it equals the record's From).
	Base string
	// Spines are patches into children shared with the anchor.
	Spines []*Patch
	// Adds are new subtrees appended under this node since the anchor.
	Adds tree.Forest
}

// digestHex is the one wire name of a tree's state: the memoized
// structural digest, truncated to 8 bytes (16 hex characters) — what
// PathHash and PathStatus advertise per document, what anchors a delta
// and what keys a patch spine. tree.CanonicalHash renders the same bytes
// without the memo; it is the reference tests compare against.
func digestHex(n *tree.Node) string {
	h := n.Digest()
	return hex.EncodeToString(h[:8])
}

// ---------------------------------------------------------------------
// Diff (server side): prune the current tree against a cached anchor.

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

// ---------------------------------------------------------------------
// Apply (receiver side): digest-targeted in-place merge.

// errPatchMismatch reports a spine whose base digest has no counterpart
// in the receiver's tree — the signal to fall back to a full pull.
var errPatchMismatch = fmt.Errorf("peer: patch base not present (tree diverged)")

// ApplyPatch merges a patch into the local tree in place, reproducing
// exactly what Union(local, fullRemote) would have produced, and reports
// whether anything changed. When any spine's base digest finds no
// matching child in the local tree (the local replica diverged from the
// sender's anchor at that position — local-only growth, a missed
// delivery, a crash that lost the anchor), it returns errPatchMismatch
// WITHOUT mutating anything, and the caller performs a full pull
// instead. The local tree must be reduced on entry; every graft leaves
// it reduced again, having repaired only the spine it grew.
func ApplyPatch(local *tree.Node, p *Patch) (changed bool, err error) {
	grafts, err := resolvePatch(local, p)
	for _, g := range grafts {
		fresh, _ := subsume.Graft(g.path, g.adds)
		changed = changed || len(fresh) > 0
	}
	return changed, err
}

// patchGraft is one step of applying a patch: adds to merge under the
// last node of path, the ancestor chain from the local root.
type patchGraft struct {
	path []*tree.Node
	adds tree.Forest
}

// resolvePatch turns a patch into the grafts that apply it, resolving
// every spine to the local node carrying its base digest before anything
// is mutated — a graft rewrites digests along its path, and an added
// subtree could coincidentally carry a spine's base digest. Any spine
// without its target makes the whole patch errPatchMismatch: an apply is
// all-or-nothing. Running the grafts cannot detach a resolved node: only
// a sibling with the same marking could come to subsume it, and a spine
// that shares its marking with another spine or add of its patch node
// (PruneSince never builds one) is a mismatch too.
func resolvePatch(local *tree.Node, p *Patch) (grafts []patchGraft, err error) {
	if local == nil || p == nil {
		return nil, nil
	}
	if local.Kind != p.Kind || local.Name != p.Name {
		return nil, fmt.Errorf("peer: patch root %s does not match document root %s",
			p.Name, local.Name)
	}
	var resolve func(path []*tree.Node, p *Patch) bool
	resolve = func(path []*tree.Node, p *Patch) bool {
		if len(p.Adds) > 0 {
			grafts = append(grafts, patchGraft{path, p.Adds})
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
		return nil, errPatchMismatch
	}
	return grafts, nil
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

// ---------------------------------------------------------------------
// Anchor cache (server side).

// deltaAnchors remembers recent states of each document, keyed by the
// digest a receiver would hold as its anchor. Bounded per document:
// serving a state whose digest is not cached falls back to a full tree,
// so the cache is purely an optimization and its size a memory/wire
// trade-off. It locks itself: the handlers that use it overlap.
type deltaAnchors struct {
	max  int
	mu   sync.Mutex
	docs map[string][]anchorState // newest last
}

type anchorState struct {
	digest string
	root   *tree.Node // deep copy, never mutated after insertion
}

// defaultDeltaAnchors is the per-document anchor bound when
// WithDeltaAnchors is not given.
const defaultDeltaAnchors = 4

func newDeltaAnchors(max int) *deltaAnchors {
	return &deltaAnchors{max: max, docs: make(map[string][]anchorState)}
}

// lookup returns the cached state with the given digest, or nil. Safe on
// a nil cache (delta serving disabled).
func (da *deltaAnchors) lookup(doc, digest string) *tree.Node {
	if da == nil {
		return nil
	}
	da.mu.Lock()
	defer da.mu.Unlock()
	for _, st := range da.docs[doc] {
		if st.digest == digest {
			return st.root
		}
	}
	return nil
}

// remember caches the current state of a document under its digest
// (copying the tree), evicting the oldest entry beyond the bound. A
// digest already cached is refreshed in place (no copy). The copy is
// taken outside the cache's lock, so a request for another document
// does not queue behind it. Safe on a nil cache (no-op).
func (da *deltaAnchors) remember(doc, digest string, root *tree.Node) {
	if da != nil && !da.store(doc, digest, nil) {
		da.store(doc, digest, root.Copy())
	}
}

// store moves the state cached under digest to the back of its
// document's list — most recently served, last to evict — and reports
// true. When none is cached it appends cp (unless nil), evicting the
// oldest beyond the bound, and reports false.
func (da *deltaAnchors) store(doc, digest string, cp *tree.Node) bool {
	da.mu.Lock()
	defer da.mu.Unlock()
	states := da.docs[doc]
	for i := range states {
		if states[i].digest == digest {
			st := states[i]
			copy(states[i:], states[i+1:])
			states[len(states)-1] = st
			return true
		}
	}
	if cp != nil {
		states = append(states, anchorState{digest: digest, root: cp})
		da.docs[doc] = states[max(len(states)-da.max, 0):]
	}
	return false
}

// ---------------------------------------------------------------------
// Wire codec.

// MarshalDelta renders a delta record:
//
//	<ax:delta name="doc" mode="same|full|delta" [from="hex"] to="hex">
//	  full mode:  one tree
//	  delta mode: one ax:patch element
//	</ax:delta>
//
// and a patch node as
//
//	<ax:patch kind="label|func" name="n" base="hex">
//	  nested ax:patch spines, then added trees
//	</ax:patch>
func MarshalDelta(d Delta) ([]byte, error) {
	var e encoder
	if d.From != "" {
		e.open(elemDelta, attrName, d.Doc, attrMode, d.Mode, attrFrom, d.From, attrTo, d.To)
	} else {
		e.open(elemDelta, attrName, d.Doc, attrMode, d.Mode, attrTo, d.To)
	}
	switch d.Mode {
	case DeltaSame:
	case DeltaFull:
		if d.Full == nil {
			return nil, fmt.Errorf("peer: full delta without tree")
		}
		e.node(d.Full)
	case DeltaPatch:
		if d.Patch == nil {
			return nil, fmt.Errorf("peer: patch delta without patch")
		}
		e.patch(d.Patch)
	default:
		return nil, fmt.Errorf("peer: unknown delta mode %q", d.Mode)
	}
	e.close(elemDelta)
	return e.bytes()
}

func (e *encoder) patch(p *Patch) {
	kind := "label"
	if p.Kind == tree.Func {
		kind = "func"
	} else if !validLabel(p.Name) {
		e.err = fmt.Errorf("peer: patch label %q is not a wire label", p.Name)
	}
	e.open(elemPatch, attrKind, kind, attrName, p.Name, attrBase, p.Base)
	for _, sp := range p.Spines {
		e.patch(sp)
	}
	for _, a := range p.Adds {
		e.node(a)
	}
	e.close(elemPatch)
}

// UnmarshalDelta parses a delta record.
func UnmarshalDelta(data []byte) (Delta, error) {
	return decodeRoot(data, elemDelta, func(s *scanner) (d Delta, err error) {
		d = Delta{Doc: s.attr(attrName), Mode: s.attr(attrMode), From: s.attr(attrFrom), To: s.attr(attrTo)}
		if d.Doc == "" {
			return d, errors.New("delta without document name")
		}
		switch d.Mode {
		case DeltaSame:
			err = s.elements(func() error { return fmt.Errorf("a %s delta carries no <%s>", DeltaSame, s.name) })
		case DeltaFull:
			if d.Full, err = s.one(); err == nil && d.Full == nil {
				err = errors.New("full delta without tree")
			}
		case DeltaPatch:
			err = s.elements(func() (err error) {
				if d.Patch != nil || string(s.name) != elemPatch {
					return fmt.Errorf("expected one %s, found %s", elemPatch, s.name)
				}
				d.Patch, err = s.patch()
				return err
			})
			if err == nil && d.Patch == nil {
				err = errors.New("patch delta without patch")
			}
		default:
			err = fmt.Errorf("unknown delta mode %q", d.Mode)
		}
		return d, err
	})
}

// patch reads an ax:patch element: spines are nested ax:patch elements,
// every other child is an added tree, in any interleaving.
func (s *scanner) patch() (*Patch, error) {
	p := &Patch{Name: s.attr(attrName), Base: s.attr(attrBase)}
	switch kind := s.attr(attrKind); kind {
	case "label":
		p.Kind = tree.Label
		if !validLabel(p.Name) {
			return nil, fmt.Errorf("patch label %q is not a wire label", p.Name)
		}
	case "func":
		p.Kind = tree.Func
		if p.Name == "" {
			return nil, errors.New("func patch without service name")
		}
	default:
		return nil, fmt.Errorf("patch kind %q (want label or func)", kind)
	}
	err := s.elements(func() error {
		if string(s.name) == elemPatch {
			sp, err := s.patch()
			p.Spines = append(p.Spines, sp)
			return err
		}
		n, err := s.tree()
		p.Adds = append(p.Adds, n)
		return err
	})
	return p, err
}
