package pattern

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sort"

	"axml/internal/tree"
)

// Vars numbers the variables of one plan: each distinct name is a slot, in
// order of first occurrence, keeping the kind it was first numbered with.
type Vars struct {
	names []string
	kinds []Kind
}

// Number returns name's slot, numbering it with kind when it is new.
func (v *Vars) Number(name string, kind Kind) int {
	if i := v.Slot(name); i >= 0 {
		return i
	}
	v.names, v.kinds = append(v.names, name), append(v.kinds, kind)
	return len(v.names) - 1
}

// Slot returns name's slot, or -1; Len the number of slots; Kind the
// kind slot i was numbered with.
func (v *Vars) Slot(name string) int { return slices.Index(v.names, name) }

func (v *Vars) Len() int { return len(v.names) }

func (v *Vars) Kind(i int) Kind { return v.kinds[i] }

// cnode is a compiled pattern node: its variable's slot, or -1 and the
// marking of a constant.
type cnode struct {
	kind Kind
	name string
	slot int
	mark tree.Marking
	kids []*cnode
}

// Compiled is a pattern in slot-annotated form, for the matchers to match
// or Instantiate to instantiate; reach is the deepest a fresh root can
// matter at for MatchDelta: the pattern's height, unbounded under a tree
// variable.
type Compiled struct {
	root  *cnode
	slots []int
	reach int
}

// Compile numbers p's variables in v and compiles p. A plan's Slab is made
// after its last pattern is compiled.
func (v *Vars) Compile(p *Node) *Compiled {
	c := &Compiled{}
	var compile func(p *Node, depth int) *cnode
	compile = func(p *Node, depth int) *cnode {
		n := &cnode{kind: p.Kind, name: p.Name, slot: -1}
		if p.Kind.IsVar() {
			n.slot = v.Number(p.Name, p.Kind)
			if !slices.Contains(c.slots, n.slot) {
				c.slots = append(c.slots, n.slot)
			}
		} else {
			n.mark = tree.Marking{Kind: p.Kind.treeKind(), Name: p.Name}
		}
		if c.reach = max(c.reach, depth); p.Kind == VarTree {
			c.reach = math.MaxInt
		}
		for _, ch := range p.Children {
			n.kids = append(n.kids, compile(ch, depth+1))
		}
		return n
	}
	if p != nil {
		c.root = compile(p, 0)
	}
	return c
}

// Slots returns the distinct slots of the pattern's variables.
func (c *Compiled) Slots() []int { return c.slots }

// Slab hands out the rows of one evaluation from shared chunks, so a bind
// or a join copies a few pointers instead of allocating, and holds the
// matcher's scratch: the row stack its recursion appends to and the key
// set it deduplicates with. One evaluation, one slab: it is not safe for
// concurrent use.
type Slab struct {
	vars  *Vars
	free  []*tree.Node
	chunk int

	since  uint64
	slots  []int // the matched pattern's: all a match's rows can differ in
	stack  []Row
	dspine []*tree.Node
	pspine []*cnode
	key    []byte
	seen   KeySet
}

// NewSlab returns an empty slab for the rows of v's slots.
func NewSlab(v *Vars) *Slab { return &Slab{vars: v} }

// Row returns a row with every slot unbound.
func (s *Slab) Row() Row { return Row{s: s.alloc(), slab: s} }

// alloc cuts one row's slots from the current chunk; chunks double from 8
// rows to 512.
func (s *Slab) alloc() []*tree.Node {
	w := s.vars.Len()
	if len(s.free) < w {
		s.chunk = min(max(2*s.chunk, 8), 512)
		s.free = make([]*tree.Node, s.chunk*w)
	}
	r := s.free[:w:w]
	s.free = s.free[w:]
	return r
}

// Row is a partial result over a plan's slots: slot i holds the document
// node variable i is bound to (an atom variable's value is its marking, a
// tree variable's its subtree), nil while unbound. New is MatchRows' flag.
type Row struct {
	s    []*tree.Node
	slab *Slab
	New  bool
}

// Bound returns the node slot i is bound to, or nil.
func (r Row) Bound(i int) *tree.Node { return r.s[i] }

// AppendKey appends to buf an injective encoding of r's bindings of slots,
// in order: a join or dedup key with no names in it, trees by digest.
func (r Row) AppendKey(buf []byte, slots []int) []byte {
	for _, i := range slots {
		switch n := r.s[i]; {
		case n == nil:
			buf = append(buf, 0)
		case r.slab.vars.kinds[i] == VarTree:
			h := n.Digest()
			buf = append(append(buf, 1), h[:]...)
		default:
			buf = append(binary.AppendUvarint(append(buf, 2), uint64(len(n.Name))), n.Name...)
		}
	}
	return buf
}

// Extend joins r with ext, matched under a row agreeing with r on ext's
// shared slots: ext itself when it was matched under r, else a fresh row
// with r's bindings and ext's.
func (r Row) Extend(ext Row) Row {
	for i, n := range r.s {
		if n != nil && ext.s[i] != n {
			out := r.slab.alloc()
			for i, n := range r.s {
				if n == nil {
					n = ext.s[i]
				}
				out[i] = n
			}
			ext.s = out
			return ext
		}
	}
	return ext
}

// MatchRows is the matcher: every extension of base under which the
// compiled pattern embeds into d with its root on d, deduplicated, each
// New iff some embedding witnessing it maps a pattern node onto a document
// node stamped after since (for a tree variable, onto a subtree whose
// MaxStamp exceeds since); base's own flag is Extend's to join. No stamp
// exceeds since = math.MaxUint64, where no freshness work is done.
//
// When d is the indexed root and the pattern has a selective anchor, only
// the anchor's candidate embeddings are verified; otherwise the tree walk
// runs: a match rooted below the document root (a deep context, a
// synthetic input node) scans a subtree that may be far smaller than the
// anchor's document-wide candidate list. A nil *Index degrades to the
// walk. The plan only changes the work done, never the result.
func (ix *Index) MatchRows(c *Compiled, d *tree.Node, base Row, since uint64) []Row {
	if c.root == nil || d == nil {
		return nil
	}
	s := base.slab
	s.since, s.slots, base.New = since, c.slots, false
	from := len(s.stack)
	switch plan, kind := ix.plan(c.root, d, base); kind {
	case planReject:
		ix.hits.Add(1)
		return nil
	case planAnchored:
		ix.hits.Add(1)
		k, cands := len(plan.spine)-1, ix.byMarking[plan.mark]
		s.stack = slices.Grow(s.stack, len(cands)) // about a row per candidate
		for _, cand := range cands {
			var ok bool
			if s.dspine, ok = ix.chain(cand, math.MaxUint64, s.dspine); ok && len(s.dspine) == k+1 {
				s.spine(plan.spine, 0, base)
			}
		}
	default:
		if ix != nil {
			ix.misses.Add(1)
		}
		s.node(c.root, d, base)
	}
	return s.pop(from)
}

// MatchDelta is the delta matcher: the rows of MatchRows(c, d, base,
// since) flagged New, found without visiting the old ones. Fresh trees are
// grafted and stamped whole and every pattern edge descends one level, so
// a witness is stamped after since iff a pattern node at depth k maps onto
// a fresh root (a node stamped after since below none) at depth k, or a
// tree variable onto its ancestor; each such pair anchors a spine match.
// The index's log lists the fresh roots of its root; other trees are
// walked for them.
func (ix *Index) MatchDelta(c *Compiled, d *tree.Node, base Row, since uint64) []Row {
	from := len(base.slab.stack)
	ix.delta(c, d, base, since, math.MaxInt)
	return base.slab.pop(from)
}

// HasDelta reports whether MatchDelta would yield a row, stopping at the
// first fresh root that anchors one.
func (ix *Index) HasDelta(c *Compiled, d *tree.Node, base Row, since uint64) bool {
	s := base.slab
	from := len(s.stack)
	ix.delta(c, d, base, since, from)
	found := len(s.stack) > from
	s.stack = s.stack[:from]
	return found
}

// MatchOld is the complement of MatchDelta: the rows of MatchRows(c, d,
// base, since) no embedding witnesses after since.
func (ix *Index) MatchOld(c *Compiled, d *tree.Node, base Row, since uint64) []Row {
	return slices.DeleteFunc(ix.MatchRows(c, d, base, since), func(r Row) bool { return r.New })
}

// delta pushes MatchDelta's rows, anchoring until the stack grows past
// stop; the matcher runs at math.MaxUint64, doing no freshness work.
func (ix *Index) delta(c *Compiled, d *tree.Node, base Row, since uint64, stop int) {
	if c.root == nil || d == nil {
		return
	}
	s := base.slab
	s.since, s.slots, base.New = math.MaxUint64, c.slots, true
	if ix != nil && d == ix.root {
		ix.tables()
	}
	if ix == nil || d != ix.root || d.Stamp > since || since < ix.from {
		if ix != nil {
			ix.misses.Add(1)
		}
		s.dspine = s.dspine[:0]
		s.freshWalk(c, d, since, base, stop)
		return
	}
	ix.hits.Add(1)
	fresh := ix.fresh[sort.Search(len(ix.fresh), func(i int) bool { return ix.fresh[i].Stamp > since }):]
	for i := 0; i < len(fresh) && len(s.stack) <= stop; i++ {
		var ok bool
		if s.dspine, ok = ix.chain(fresh[i], since, s.dspine); ok {
			s.anchor(c.root, base)
		}
	}
}

// freshWalk anchors c at the fresh roots c can reach from n, below s.dspine.
func (s *Slab) freshWalk(c *Compiled, n *tree.Node, since uint64, base Row, stop int) {
	s.dspine = append(s.dspine, n)
	if depth := len(s.dspine) - 1; n.Stamp > since {
		s.anchor(c.root, base)
	} else if depth < c.reach {
		for _, ch := range n.Children {
			if len(s.stack) <= stop {
				s.freshWalk(c, ch, since, base, stop)
			}
		}
	}
	s.dspine = s.dspine[:len(s.dspine)-1]
}

// anchor matches the pattern under r at the fresh root ending the
// document path s.dspine: a pattern node p at its depth maps onto it, or
// a tree variable above it onto its ancestor at p's depth. s.pspine holds
// the pattern path down to p's parent.
func (s *Slab) anchor(p *cnode, r Row) {
	s.pspine = append(s.pspine, p)
	path, k := s.dspine, len(s.pspine)-1
	switch {
	case k < len(path)-1 && p.kind != VarTree:
		for _, c := range p.kids {
			s.anchor(c, r)
		}
	case p.slot >= 0 || p.mark == path[k].Marking():
		s.dspine = path[:k+1]
		s.spine(s.pspine, 0, r)
		s.dspine = path
	}
	s.pspine = s.pspine[:k]
}

// bind places p on d under r: a constant needs d's marking, a variable
// binds by Row.Bind.
func (s *Slab) bind(p *cnode, d *tree.Node, r Row) (Row, bool) {
	if p.slot < 0 {
		return r, d.Marking() == p.mark
	}
	return r.Bind(p.kind, p.slot, d)
}

// Bind is the bind rule: it places a variable of the given kind, numbered
// slot, on d under r. An atom variable needs d's node kind and binds d's
// marking, a tree variable binds d's subtree. A slot bound in r needs d to
// bind it alike — the same marking, or for a tree variable an isomorphic
// subtree (equal digests) — and an unbound one is bound in a copy of r cut
// from its slab. A slot numbered as a tree variable never binds as an atom
// variable, nor the reverse.
func (r Row) Bind(kind Kind, slot int, d *tree.Node) (Row, bool) {
	switch prev, tv := r.s[slot], kind == VarTree; {
	case tv != (r.slab.vars.kinds[slot] == VarTree), !tv && d.Kind != kind.treeKind():
		return r, false
	case prev != nil && tv:
		return r, prev.Digest() == d.Digest()
	case prev != nil:
		return r, prev.Name == d.Name
	}
	out := r.slab.alloc()
	copy(out, r.s)
	out[slot] = d
	r.s = out
	return r, true
}

// node pushes every extension of r under which p maps onto d.
func (s *Slab) node(p *cnode, d *tree.Node, r Row) {
	r, ok := s.bind(p, d, r)
	if !ok {
		return
	}
	if p.kind == VarTree {
		// The bound value is the whole subtree: it is fresh if any of its
		// nodes arrived after the baseline — a walk worth skipping when
		// nothing can be.
		r.New = r.New || (s.since != math.MaxUint64 && d.MaxStamp() > s.since)
		s.stack = append(s.stack, r)
		return
	}
	r.New = r.New || d.Stamp > s.since
	from := len(s.stack)
	s.stack = append(s.stack, r)
	s.children(p.kids, nil, d, from)
}

// children maps each pattern child but skip into some child of d in turn,
// extending the rows on the stack from `from` on, and deduplicates after
// each so sibling children do not multiply duplicate embeddings.
func (s *Slab) children(pcs []*cnode, skip *cnode, d *tree.Node, from int) {
	for _, pc := range pcs {
		if pc == skip {
			continue
		}
		to := len(s.stack)
		for i := from; i < to; i++ {
			for _, dc := range d.Children {
				s.node(pc, dc, s.stack[i])
			}
		}
		n := copy(s.stack[from:], s.stack[to:])
		s.stack = s.stack[:from+n]
		if n == 0 {
			return
		}
		s.dedup(from)
	}
}

// spine matches the pattern spine against the forced document spine
// s.dspine: pspine[i] must map exactly onto dspine[i] (the anchor's image
// chain is unique because every pattern edge descends exactly one level),
// while every off-spine pattern child matches freely — possibly onto the
// spine child too, exactly as in tree subsumption.
func (s *Slab) spine(pspine []*cnode, i int, r Row) {
	p, d := pspine[i], s.dspine[i]
	if i == len(pspine)-1 {
		s.node(p, d, r) // the anchor: its children match freely below it
		return
	}
	r, ok := s.bind(p, d, r)
	if !ok {
		return
	}
	r.New = r.New || d.Stamp > s.since
	from := len(s.stack)
	// Forced spine child first — it is the selective one — then the
	// remaining children against all of d's children.
	s.spine(pspine, i+1, r)
	if len(s.stack) > from {
		s.children(p.kids, pspine[i+1], d, from)
	}
}

// pop takes the rows on the stack from `from` on off it, deduplicated.
func (s *Slab) pop(from int) []Row {
	s.dedup(from)
	out := slices.Clone(s.stack[from:])
	s.stack = s.stack[:from]
	return out
}

// dedup drops the rows on the stack from `from` on that repeat an earlier
// one on the matched pattern's slots.
func (s *Slab) dedup(from int) {
	s.stack = s.stack[:from+len(Distinct(s.stack[from:], s.slots))]
}

// Distinct is the dedup of rows: it drops, in place, the rows binding
// every slot of slots like an earlier row, OR-ing their New flags into it.
// The rows share one slab, whose key buffer and key set it reuses.
func Distinct(rows []Row, slots []int) []Row {
	if len(rows) < 2 {
		return rows
	}
	s := rows[0].slab
	s.seen.Reset()
	out := rows[:0]
	for _, r := range rows {
		s.key = r.AppendKey(s.key[:0], slots)
		if j, added := s.seen.Add(s.key); !added {
			out[j].New = out[j].New || r.New
			continue
		}
		out = append(out, r)
	}
	return out
}

// KeySet numbers distinct byte keys without a string per key: keys are
// copied into one buffer and found by hash, collisions resolved by
// comparing bytes. The zero value is an empty set.
type KeySet struct {
	seed maphash.Seed
	buf  []byte
	ends []int32          // key i is buf[ends[i]:ends[i+1]]
	prev []int32          // per key, the previous key with its hash, or -1
	last map[uint64]int32 // hash → the newest key with it
}

// Add returns key's number (keys are numbered 0, 1, … as added), adding
// it when it is absent.
func (ks *KeySet) Add(key []byte) (i int, added bool) {
	if ks.last == nil {
		ks.seed, ks.last, ks.ends = maphash.MakeSeed(), map[uint64]int32{}, []int32{0}
	}
	h := maphash.Bytes(ks.seed, key)
	j, ok := ks.last[h]
	if !ok {
		j = -1
	}
	for k := j; k >= 0; k = ks.prev[k] {
		if bytes.Equal(ks.buf[ks.ends[k]:ks.ends[k+1]], key) {
			return int(k), false
		}
	}
	i = len(ks.prev)
	ks.buf = append(ks.buf, key...)
	ks.ends, ks.prev = append(ks.ends, int32(len(ks.buf))), append(ks.prev, j)
	ks.last[h] = int32(i)
	return i, true
}

// Reset empties the set, keeping its storage.
func (ks *KeySet) Reset() {
	if ks.last != nil {
		ks.buf, ks.ends, ks.prev = ks.buf[:0], ks.ends[:1], ks.prev[:0]
		clear(ks.last)
	}
}
