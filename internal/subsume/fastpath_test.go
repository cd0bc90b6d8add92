package subsume_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"axml/internal/subsume"
	"axml/internal/subsume/oracle"
	"axml/internal/tree"
)

// wideTree draws a label node with 17..40 children — past the fan-out
// where sub indexes a witness's children by digest — taken from a small
// pool, so children repeat (the same node twice) and come as digest-equal
// copies. Pool members are randomTree output and, above the last level,
// wide nodes themselves.
func wideTree(rng *rand.Rand, depth int) *tree.Node {
	pool := make([]*tree.Node, 4+rng.Intn(8))
	for i := range pool {
		if depth > 0 && rng.Intn(4) == 0 {
			pool[i] = wideTree(rng, depth-1)
		} else {
			pool[i] = randomTree(rng, 2)
		}
	}
	n := tree.NewLabel(string(rune('a' + rng.Intn(2))))
	for i := 17 + rng.Intn(24); i > 0; i-- {
		c := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			c = c.Copy()
		}
		n.Children = append(n.Children, c)
	}
	return n
}

// widePair draws x and y: independent, or y a superset of x's children
// (so the subsumption holds and the digest index does the work), or x a
// subset of y's children with one subtree grown.
func widePair(rng *rand.Rand) (x, y *tree.Node) {
	x = wideTree(rng, 1)
	switch rng.Intn(3) {
	case 0:
		y = wideTree(rng, 1)
	case 1:
		y = x.Copy()
		for i := rng.Intn(6); i > 0; i-- {
			y.Children = append(y.Children, randomTree(rng, 2))
		}
		rng.Shuffle(len(y.Children), func(i, j int) { y.Children[i], y.Children[j] = y.Children[j], y.Children[i] })
	default:
		y = x.Copy()
		x.Children = x.Children[:len(x.Children)-rng.Intn(4)]
		g := y.Children[rng.Intn(len(y.Children))]
		if g.Kind != tree.Value {
			g.Children = append(g.Children, randomTree(rng, 1))
		}
	}
	// The raw slice writes above bypass the digest invalidation contract.
	tree.InvalidateDigestAll(x)
	tree.InvalidateDigestAll(y)
	return x, y
}

// TestPropertySignatureNecessary: whenever the oracle finds x ⊆ y, x's
// signature is a subset of y's — the condition pruneSiblingsPairwise
// rejects pairs on can never reject a true subsumption.
func TestPropertySignatureNecessary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := randomTree(rng, 4), randomTree(rng, 4)
		if rng.Intn(2) == 0 {
			x, y = widePair(rng)
		}
		for _, p := range [][2]*tree.Node{{x, y}, {y, x}, {x, x}} {
			if oracle.Subsumed(p[0], p[1]) && subsume.Signature(p[0])&^subsume.Signature(p[1]) != 0 {
				t.Logf("seed %d: %s ⊆ %s but signatures %x, %x", seed,
					p[0].CanonicalString(), p[1].CanonicalString(), subsume.Signature(p[0]), subsume.Signature(p[1]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// wideForest draws k trees mixing every relation a reduction meets:
// distinct entries, entries subsumed by a richer one, digest-equal
// copies, wide entries over overlapping child sets (subsumption between
// them goes through the digest index) and random trees.
func wideForest(rng *rand.Rand, k int) tree.Forest {
	f := make(tree.Forest, 0, k)
	for len(f) < k {
		id := tree.NewLabel("id", tree.NewValue(fmt.Sprint(rng.Intn(k/2+1))))
		switch rng.Intn(5) {
		case 0:
			f = append(f, tree.NewLabel("entry", id, tree.NewLabel("body", tree.NewValue(fmt.Sprint(rng.Intn(3))))))
		case 1:
			f = append(f, tree.NewLabel("entry", id))
		case 2:
			if len(f) > 0 {
				f = append(f, f[rng.Intn(len(f))].Copy())
			}
		case 3:
			w := tree.NewLabel("entry")
			for i := 17 + rng.Intn(8); i > 0; i-- {
				w.Children = append(w.Children, tree.NewLabel("f", tree.NewValue(fmt.Sprint(rng.Intn(30)))))
			}
			f = append(f, w)
		default:
			f = append(f, randomTree(rng, 3))
		}
	}
	return f
}

// TestDifferentialWideForests: Subsumed, Reduce and ReduceForest agree
// with the oracle on wide forests, at fan-outs just past the index
// threshold, moderate, and the replication benchmark's.
func TestDifferentialWideForests(t *testing.T) {
	for _, k := range []int{17, 64, 600} {
		rng := rand.New(rand.NewSource(int64(k)))
		f := wideForest(rng, k)
		root := tree.NewLabel("log", f...)
		if got, want := subsume.Reduce(root), oracle.Reduce(root); !tree.Isomorphic(got, want) {
			t.Fatalf("k=%d: Reduce keeps %d children, oracle %d", k, len(got.Children), len(want.Children))
		}
		if got, want := tree.NewLabel("log", subsume.ReduceForest(f)...), oracle.Reduce(root); !tree.Isomorphic(got, want) {
			t.Fatalf("k=%d: ReduceForest keeps %d trees, oracle %d", k, len(got.Children), len(want.Children))
		}
		for i := 0; i < 6; i++ {
			// A sample of the forest against the whole (a superset, when the
			// sample avoided nothing) and against a grown or shrunk variant.
			x := tree.NewLabel("log")
			for _, c := range f {
				if rng.Intn(3) > 0 {
					x.Children = append(x.Children, c.Copy())
				}
			}
			y := root
			if i%2 == 1 {
				y = tree.NewLabel("log", wideForest(rng, k)...)
			}
			for _, p := range [][2]*tree.Node{{x, y}, {y, x}} {
				if got, want := subsume.Subsumed(p[0], p[1]), oracle.Subsumed(p[0], p[1]); got != want {
					t.Fatalf("k=%d sample %d: Subsumed = %v, oracle %v", k, i, got, want)
				}
			}
		}
		for i := 0; i < 200; i++ {
			a, b := f[rng.Intn(k)], f[rng.Intn(k)]
			if got, want := subsume.Subsumed(a, b), oracle.Subsumed(a, b); got != want {
				t.Fatalf("k=%d: Subsumed(%s, %s) = %v, oracle %v", k, a.CanonicalString(), b.CanonicalString(), got, want)
			}
		}
	}
}

// logEntries builds k distinct log entries shaped like the replication
// benchmark's: entry{id{"e<i>"},body{"payload-<i>"}}.
func logEntries(k int) []*tree.Node {
	out := make([]*tree.Node, k)
	for i := range out {
		out[i] = tree.NewLabel("entry",
			tree.NewLabel("id", tree.NewValue(fmt.Sprint("e", i))),
			tree.NewLabel("body", tree.NewValue(fmt.Sprint("payload-", i))))
	}
	return out
}

// TestComplexityWideLinear pins the replication path's kernels to O(k)
// allocations at k = 4096: the delta anchor check Subsumed(anchor,
// grown) — the anchor log against the log one append later — and the
// sibling pruning of a fresh wide root over distinct reduced entries.
// A per-pair memo or any other all-pairs bookkeeping allocates per pair
// (thousands of map growths here) and fails the bound.
func TestComplexityWideLinear(t *testing.T) {
	const k = 4096
	entries := logEntries(k + 1)
	anchor := tree.NewLabel("log", entries[:k]...)
	grown := tree.NewLabel("log", append(append([]*tree.Node(nil), entries[:k]...), entries[k])...)
	subsume.ReduceInPlace(anchor) // digests and reduced marks, once
	subsume.ReduceInPlace(grown)
	if allocs := testing.AllocsPerRun(3, func() {
		if !subsume.Subsumed(anchor, grown) {
			t.Fatal("anchor not subsumed by its growth")
		}
	}); allocs > k/8 {
		t.Errorf("Subsumed(anchor, grown) at k=%d: %.0f allocations, want ≤ %d", k, allocs, k/8)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		if r := subsume.ReduceInPlace(tree.NewLabel("log", entries[:k]...)); len(r.Children) != k {
			t.Fatalf("distinct entries pruned: %d left", len(r.Children))
		}
	}); allocs > k/8 {
		t.Errorf("ReduceInPlace of a %d-wide root: %.0f allocations, want ≤ %d", k, allocs, k/8)
	}
}
