package tree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"
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
	return hashNode(n, func(c *Node) *Hash {
		h := c.CanonicalHash()
		return &h
	})
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
//   - StampAll clears every memo in the subtree it stamps: the whole
//     document after a by-hand edit reported through System.Touch. An
//     append restamps its fresh trees with Restamp instead, which keeps
//     their memos: Graft built those trees as reduced copies, whose
//     memos are valid, and stamps do not enter the digest;
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
	return *n.digest()
}

// digest returns n's memo, filling it first: one allocation per node
// hashed.
func (n *Node) digest() *Hash {
	if h := n.dig.Load(); h != nil {
		return h
	}
	h := hashNode(n, (*Node).digest)
	n.dig.Store(&h)
	return &h
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

// hashNode hashes one node: a header (kind, name length, child count), the
// name, then the child digests (child returns one's memo) in sorted order.
// Up to eight children sort in a stack array, and an input that fits
// hashBlock is hashed by one Sum256 over a stack buffer; a larger one
// streams through one hasher. No buffer grows: re-hashing a wide root
// costs a pointer per child, its header and its memo.
func hashNode(n *Node, child func(*Node) *Hash) Hash {
	var small [8]*Hash
	kids := small[:0]
	if len(n.Children) > len(small) {
		kids = make([]*Hash, 0, len(n.Children))
	}
	for _, c := range n.Children {
		kids = append(kids, child(c))
	}
	slices.SortFunc(kids, func(a, b *Hash) int { return compareHash(*a, *b) })
	const hdr = 9
	if hdr+len(n.Name)+len(kids)*len(Hash{}) <= hashBlock {
		var buf [hashBlock]byte
		b := append(header(buf[:0], n, len(kids)), n.Name...)
		for _, k := range kids {
			b = append(b, k[:]...)
		}
		return sha256.Sum256(b)
	}
	// The header and the name share one allocation, which then holds the
	// sum; the child digests are written from their memos.
	pre := append(header(make([]byte, 0, max(hdr+len(n.Name), len(Hash{}))), n, len(kids)), n.Name...)
	h := sha256.New()
	h.Write(pre)
	for _, k := range kids {
		h.Write(k[:])
	}
	return Hash(h.Sum(pre[:0]))
}

// hashBlock bounds hashNode's stack buffer: a header, eight child digests
// and a 247-byte name fit.
const hashBlock = 512

// header appends the node header hashNode frames its input with.
func header(b []byte, n *Node, kids int) []byte {
	b = append(b, byte(n.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.Name)))
	return binary.LittleEndian.AppendUint32(b, uint32(kids))
}

// compareHash orders digests lexicographically (the canonical child
// order).
func compareHash(a, b Hash) int { return bytes.Compare(a[:], b[:]) }
