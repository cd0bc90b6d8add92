package tree

import (
	"testing"
)

// The per-subtree digest memo is a cache over CanonicalHash, so any
// divergence between cached and recomputed values silently corrupts
// subsumption fast paths and delta replication. FuzzDigestStability builds
// arbitrary trees from fuzz bytes and checks the memo survives the
// lifecycle operations the engine applies: Digest, Copy (used by Copy and
// Restore snapshots), StampAll (Touch/Restore/replica sync), and Add.

// buildFuzzTree consumes bytes as instructions for a depth-first tree
// builder. Deterministic in the input, bounded in size.
func buildFuzzTree(data []byte) *Node {
	root := NewLabel("fuzz-root")
	stack := []*Node{root}
	nodes := 1
	for i := 0; i+1 < len(data) && nodes < 512; i += 2 {
		op, arg := data[i], data[i+1]
		cur := stack[len(stack)-1]
		switch op % 4 {
		case 0: // push a label child and descend
			n := NewLabel(fuzzName("l", arg))
			cur.Add(n)
			stack = append(stack, n)
			nodes++
		case 1: // leaf value child
			cur.Add(NewValue(fuzzName("v", arg)))
			nodes++
		case 2: // func child with one parameter, descend into it
			n := NewFunc(fuzzName("f", arg), NewValue(fuzzName("p", arg)))
			cur.Add(n)
			stack = append(stack, n)
			nodes += 2
		case 3: // pop back toward the root
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	return root
}

// fuzzName maps a fuzz byte to a small name alphabet so inputs collide on
// markings (equal sibling subtrees, equal digests) rather than each byte
// minting a fresh name.
func fuzzName(prefix string, b byte) string {
	return prefix + string(rune('a'+b%17))
}

func FuzzDigestStability(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 3, 0, 2, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 1, 9})
	f.Add([]byte{2, 7, 1, 7, 3, 0, 2, 7, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		n := buildFuzzTree(data)

		// Digest must agree with the uncached canonical hash.
		want := n.CanonicalHash()
		if n.Digest() != want {
			t.Fatalf("Digest != CanonicalHash on fresh tree")
		}

		// Copy preserves digests (the Restore path snapshots via Copy, so
		// this is also Restore's stability guarantee).
		c := n.Copy()
		if c.Digest() != want {
			t.Fatalf("Copy changed digest")
		}

		// StampAll (Touch/Restore) clears memos; recomputation must land
		// on the same value when the structure is unchanged.
		c.StampAll(42)
		if c.Digest() != want {
			t.Fatalf("digest drifted across StampAll")
		}

		// Mutation through Add invalidates, and the memo converges back to
		// the canonical hash.
		c.Add(NewValue("fuzz-extra"))
		if c.Digest() != c.CanonicalHash() {
			t.Fatalf("digest stale after Add")
		}
		// The original is structurally untouched by mutating the copy.
		if n.Digest() != want {
			t.Fatalf("mutating copy corrupted original digest")
		}
	})
}
