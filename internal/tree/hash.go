package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync/atomic"
)

// Hash is a structural digest of an unordered tree. Two isomorphic trees
// always have equal hashes; distinct trees collide only with cryptographic
// improbability (SHA-256 based), which the rewriting engine accepts in
// exchange for O(n) equivalence checks on reduced documents — the
// canonical-string comparison is O(n²) on deep trees.
type Hash [32]byte

// CanonicalHash computes the structural digest of the subtree rooted at n:
// a Merkle-style hash over (kind, name, sorted child hashes). It runs in
// O(n·b log b) time and O(depth) extra space and never consults or fills
// the per-node memo. It is the reference: tests and the benchmark's
// oracles compare Digest against it (the two always agree on a tree whose
// memos are fresh); product code calls Digest (scripts/lint-obs.sh).
func (n *Node) CanonicalHash() Hash {
	if n == nil {
		return Hash{}
	}
	var kids []Hash
	if len(n.Children) > 0 {
		kids = make([]Hash, len(n.Children))
		for i, c := range n.Children {
			kids[i] = c.CanonicalHash()
		}
		sortHashes(kids)
	}
	return hashNode(n, kids)
}

// Digest returns the subtree's structural digest, memoized per node: the
// same value as CanonicalHash, computed bottom-up through the children's
// memos so an unchanged subtree is never re-hashed. This is the
// hash-consing that lets subsumption, reduction and LUB merge treat
// "equal digest" as "isomorphic subtree" in O(1) after the first walk.
//
// Invalidation contract: any in-place mutation of a node's Children,
// Kind or Name must clear the memo of that node AND of every ancestor
// (a subtree digest covers everything below it). The maintained paths:
//
//   - subsume.Graft — under every way a system document grows: an
//     invocation's merge, System.Append (pushed forests, replication
//     patches) and System.Restore (journal replay, full pulls) —
//     invalidates along the ancestor chain root..attach it was handed;
//   - StampAll clears every memo in the subtree it stamps: the fresh
//     trees of an append, or the whole document after a by-hand edit
//     reported through System.Touch;
//   - reduction in place (subsume) clears the memo of every node whose
//     child list it rewrites;
//   - Add clears the node it grows.
//
// Construction-time mutation is safe by default: a node mutated before
// its first Digest call has no memo to go stale.
//
// Concurrency: the memo is read and filled with atomic pointer loads and
// stores, so any number of concurrent readers (parallel evaluations over
// shared live trees) may race benignly — they compute and store the same
// value. Mutators must be exclusive with readers, which the engine's
// version-funnel lock already guarantees.
func (n *Node) Digest() Hash {
	if n == nil {
		return Hash{}
	}
	if h := n.dig.Load(); h != nil {
		return *h
	}
	var kids []Hash
	if len(n.Children) > 0 {
		kids = make([]Hash, len(n.Children))
		for i, c := range n.Children {
			kids[i] = c.Digest()
		}
		sortHashes(kids)
	}
	h := hashNode(n, kids)
	n.dig.Store(&h)
	return h
}

// InvalidateDigest clears the node's memoized digest and reduced flag
// (not its children's: their subtrees did not change when only n's child
// list did). Callers mutating a node below a document root must also
// invalidate every ancestor, e.g. via InvalidateDigestPath.
func (n *Node) InvalidateDigest() {
	if n != nil {
		n.dig.Store(nil)
		atomic.StoreUint32(&n.red, 0)
	}
}

// InvalidateDigestAll clears the memoized digest and reduced flag of
// every node in the subtree, without touching stamps. Use it after
// mutating children through raw slice writes that bypass the maintained
// invalidation paths (Add, subsume.Graft, StampAll), before any digest-consuming
// operation runs.
func InvalidateDigestAll(n *Node) {
	if n == nil {
		return
	}
	n.InvalidateDigest()
	for _, c := range n.Children {
		InvalidateDigestAll(c)
	}
}

// MarkReduced records that the subtree rooted at n was verified reduced.
// Only package subsume should set it; any mutation clears it through
// InvalidateDigest.
func (n *Node) MarkReduced() {
	atomic.StoreUint32(&n.red, 1)
}

// KnownReduced reports whether the subtree is recorded as reduced (and
// unchanged since that verification).
func (n *Node) KnownReduced() bool {
	return atomic.LoadUint32(&n.red) == 1
}

// InvalidateDigestPath clears the memoized digest of every node on an
// ancestor chain (root first or last — order is irrelevant). subsume.Graft
// calls this with root..attach after splicing new children in.
func InvalidateDigestPath(path []*Node) {
	for _, n := range path {
		n.InvalidateDigest()
	}
}

// hashNode hashes one node header plus its pre-sorted child digests.
func hashNode(n *Node, kids []Hash) Hash {
	h := sha256.New()
	var hdr [9]byte
	hdr[0] = byte(n.Kind)
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(n.Name)))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(kids)))
	h.Write(hdr[:])
	h.Write([]byte(n.Name))
	for _, k := range kids {
		h.Write(k[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// sortHashes sorts digests lexicographically (the canonical child order).
func sortHashes(kids []Hash) {
	sort.Slice(kids, func(i, j int) bool {
		return compareHash(kids[i], kids[j]) < 0
	})
}

func compareHash(a, b Hash) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
