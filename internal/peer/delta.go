package peer

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"

	"axml/internal/subsume"
	"axml/internal/tree"
)

// Delta replication. Prop 3.1 monotonicity means a peer's documents only
// grow by least-upper-bound merge, so replication never needs to ship a
// whole tree: the growth since the last acknowledged digest is a sound
// CRDT-style update. Every growth already leaves core as one graft record
// (the path by marking and pre-graft digest, and the fresh trees), and
// replayed in order from a digest-equal pre-state the records reproduce
// the post-state exactly (Prop 2.1, Thm 2.1). So the server keeps, per
// document, the states it served (the anchors: digest → growth count)
// and the records written since the oldest of them (the log). A receiver
// asks "give me what changed since digest D"; when D is an anchor the log
// still covers, the answer is the records since it, which the receiver
// replays through System.Append, and otherwise (no anchor, evicted, a
// by-hand edit reset the log) the full tree. A record whose path does not
// resolve at the receiver (local-only growth on its path) stops the
// replay, and the receiver falls back to a full pull: the records already
// applied were exact origin growths. Every fallback is safe: the delta
// path is an optimization over the same LUB merge, never a different
// semantics. The patch form (PruneSince, ApplyPatch: a digest-diff of two
// trees) is still decoded and applied but no longer served.

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
	// DeltaLog: the payload is the graft records since the anchor state.
	DeltaLog = "log"
	// DeltaFull: the payload is the full tree (anchor unknown or unusable).
	DeltaFull = "full"
)

// Delta is one delta-replication wire record: the answer to "what
// changed in document Doc since state From".
type Delta struct {
	// Doc is the document name.
	Doc string
	// Mode is DeltaSame, DeltaLog, DeltaPatch or DeltaFull.
	Mode string
	// From is the anchor digest the records or the patch start from
	// (DeltaLog and DeltaPatch only; empty otherwise).
	From string
	// To is the digest of the document state this record brings the
	// receiver up to — the receiver's next anchor.
	To string
	// Full carries the whole tree in DeltaFull mode.
	Full *tree.Node
	// Patch carries the digest-diff in DeltaPatch mode.
	Patch *Patch
	// Log carries the graft records since From in DeltaLog mode, oldest
	// first, each of document Doc.
	Log []GraftRecord
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

// errPatchMismatch reports a spine whose base digest, or a record whose
// path, has no counterpart in the receiver's tree — the signal to fall
// back to a full pull.
var errPatchMismatch = fmt.Errorf("peer: delta does not resolve (tree diverged)")

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
// Anchor cache and graft log (server side).

// deltaAnchors remembers, per document, the states receivers were last
// served (the anchors: digest → growth count at serve time, max of them,
// LRU) and the graft records since the oldest (the log, at most logCap
// bytes). A receiver whose anchor the log does not cover gets the full
// tree, so the cache is purely an optimization. Only the mutation hook
// (grew) writes the log; the handlers, which overlap, remember anchors.
type deltaAnchors struct {
	max, logCap int
	mu          sync.Mutex
	docs        map[string]*docLog // the documents with a live anchor
}

// docLog is one document's anchors and log: seq counts its growths, recs
// holds records base+1..seq, and no anchor's seq is below base.
type docLog struct {
	anchors   []anchor // newest last
	seq, base uint64
	recs      [][]byte
	bytes     int
}

type anchor struct {
	digest string
	seq    uint64
}

// defaultDeltaAnchors is the per-document anchor bound when
// WithDeltaAnchors is not given.
const defaultDeltaAnchors = 4

// deltaLogBytes caps one document's log: past it, a log answer would
// outweigh most full trees.
const deltaLogBytes = 256 << 10

func newDeltaAnchors(max int) *deltaAnchors {
	return &deltaAnchors{max: max, logCap: deltaLogBytes, docs: make(map[string]*docLog)}
}

// remember records that a receiver now holds the document's current
// state, at the growth count it is at: the caller holds the system's
// read side, so no growth lands in between. A digest already remembered
// moves to the back. Safe on a nil cache (no-op), like every method.
func (da *deltaAnchors) remember(doc, digest string) {
	if da == nil {
		return
	}
	da.mu.Lock()
	defer da.mu.Unlock()
	l := da.docs[doc]
	if l == nil {
		l = &docLog{}
		da.docs[doc] = l
	}
	if i := slices.IndexFunc(l.anchors, func(a anchor) bool { return a.digest == digest }); i >= 0 {
		a := l.anchors[i]
		l.anchors = append(slices.Delete(l.anchors, i, i+1), a)
		return
	}
	l.anchors = append(l.anchors, anchor{digest, l.seq})
	l.anchors = l.anchors[max(len(l.anchors)-da.max, 0):]
}

// logging reports whether the document's growths are logged.
func (da *deltaAnchors) logging(doc string) bool {
	if da == nil {
		return false
	}
	da.mu.Lock()
	defer da.mu.Unlock()
	return da.docs[doc] != nil
}

// grew logs one growth's record. A nil rec (a whole-document change, or a
// growth that did not encode) drops the document's log and anchors: no
// record leads from their states to the new one. Then the records before
// the oldest anchor go, and the oldest ones past logCap with the anchors
// they strand; a document left without anchors stops logging.
func (da *deltaAnchors) grew(doc string, rec []byte) {
	if da == nil {
		return
	}
	da.mu.Lock()
	defer da.mu.Unlock()
	l := da.docs[doc]
	if l == nil || rec == nil {
		delete(da.docs, doc)
		return
	}
	l.seq++
	l.recs, l.bytes = append(l.recs, rec), l.bytes+len(rec)
	oldest := l.seq
	for _, a := range l.anchors {
		oldest = min(oldest, a.seq)
	}
	drop := int(oldest - l.base)
	for _, r := range l.recs[:drop] {
		l.bytes -= len(r)
	}
	for ; drop < len(l.recs) && l.bytes > da.logCap; drop++ {
		l.bytes -= len(l.recs[drop])
	}
	clear(l.recs[:drop])
	l.recs, l.base = l.recs[drop:], l.base+uint64(drop)
	if l.anchors = slices.DeleteFunc(l.anchors, func(a anchor) bool { return a.seq < l.base }); len(l.anchors) == 0 {
		delete(da.docs, doc)
	}
}

// since returns the framed records after the anchor from — a log
// answer's body — or nil when the log does not cover from or holds
// nothing since.
func (da *deltaAnchors) since(doc, from string) (frames []byte) {
	if da == nil {
		return nil
	}
	da.mu.Lock()
	defer da.mu.Unlock()
	if l := da.docs[doc]; l != nil {
		if i := slices.IndexFunc(l.anchors, func(a anchor) bool { return a.digest == from }); i >= 0 {
			for _, rec := range l.recs[l.anchors[i].seq-l.base:] {
				frames = appendFrame(frames, rec)
			}
		}
	}
	return frames
}

// size reports the records and bytes logged for doc, or for every
// document when doc is empty.
func (da *deltaAnchors) size(doc string) (records, bytes int64) {
	if da == nil {
		return 0, 0
	}
	da.mu.Lock()
	defer da.mu.Unlock()
	for name, l := range da.docs {
		if doc == "" || name == doc {
			records, bytes = records+int64(len(l.recs)), bytes+int64(l.bytes)
		}
	}
	return records, bytes
}

// ---------------------------------------------------------------------
// Wire codec.

// MarshalDelta renders a delta record:
//
//	<ax:delta name="doc" mode="same|full|delta|log" [from="hex"] to="hex">
//	  full mode:  one tree
//	  delta mode: one ax:patch element
//	</ax:delta>
//	log mode: the empty element, then per record its uvarint length and
//	          its bytes as marshalGraftRecord writes them
//
// and a patch node as
//
//	<ax:patch kind="label|func" name="n" base="hex">
//	  nested ax:patch spines, then added trees
//	</ax:patch>
func MarshalDelta(d Delta) ([]byte, error) {
	var frames []byte
	for _, r := range d.Log {
		rec, err := marshalGraftRecord(r.Doc, r.Path, r.Fresh)
		if err != nil {
			return nil, err
		}
		frames = appendFrame(frames, rec)
	}
	return marshalDelta(d, frames)
}

// marshalDelta is MarshalDelta with the payload already encoded: a log
// answer's framed records (the server's log keeps them encoded), or a
// full answer's tree when d.Full is nil (the peer's memo keeps it).
func marshalDelta(d Delta, payload []byte) ([]byte, error) {
	e := encoder{b: make([]byte, 0, len(payload)+256)}
	if d.From != "" {
		e.open(elemDelta, attrName, d.Doc, attrMode, d.Mode, attrFrom, d.From, attrTo, d.To)
	} else {
		e.open(elemDelta, attrName, d.Doc, attrMode, d.Mode, attrTo, d.To)
	}
	switch d.Mode {
	case DeltaSame:
	case DeltaFull:
		if d.Full == nil && len(payload) == 0 {
			return nil, fmt.Errorf("peer: full delta without tree")
		}
		if d.Full != nil {
			e.node(d.Full)
		} else {
			e.b = append(e.b, payload...)
		}
	case DeltaPatch:
		if d.Patch == nil {
			return nil, fmt.Errorf("peer: patch delta without patch")
		}
		e.patch(d.Patch)
	case DeltaLog:
		if d.From == "" || len(payload) == 0 {
			return nil, fmt.Errorf("peer: log delta without anchor or records")
		}
		e.close(elemDelta)
		e.b = append(e.b, payload...)
		return e.bytes()
	default:
		return nil, fmt.Errorf("peer: unknown delta mode %q", d.Mode)
	}
	e.close(elemDelta)
	return e.bytes()
}

// appendFrame appends one record of a log answer: its length, then it.
func appendFrame(b, rec []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(rec))), rec...)
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
		case DeltaLog:
			if err = s.elements(func() error { return fmt.Errorf("a %s delta carries no <%s>", DeltaLog, s.name) }); err == nil {
				d.Log, err = unmarshalFrames(s.data[s.pos:], d.Doc)
				s.pos = len(s.data) // the frames are the rest of the input
			}
			if err == nil && d.From == "" {
				err = errors.New("log delta without anchor")
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

// unmarshalFrames decodes a log answer's records: at least one (an
// empty log answers same), each of document doc.
func unmarshalFrames(data []byte, doc string) (recs []GraftRecord, err error) {
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			return nil, fmt.Errorf("record %d: frame length past the body", len(recs))
		}
		var r GraftRecord
		r.Doc, r.Path, r.Fresh, err = unmarshalGraftRecord(data[k : k+int(n)])
		if err == nil && r.Doc != doc {
			err = fmt.Errorf("names document %q, not %q", r.Doc, doc)
		}
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", len(recs), err)
		}
		recs, data = append(recs, r), data[k+int(n):]
	}
	if len(recs) == 0 {
		return nil, errors.New("log delta without records")
	}
	return recs, nil
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
