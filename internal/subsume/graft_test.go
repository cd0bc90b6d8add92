package subsume_test

import (
	"math/rand"
	"testing"

	"axml/internal/subsume"
	"axml/internal/subsume/oracle"
	"axml/internal/tree"
)

// pathTo returns the ancestor chain root..node reached by following the
// child indexes, on any tree of the same shape.
func pathTo(root *tree.Node, idx []int) []*tree.Node {
	path := []*tree.Node{root}
	for _, i := range idx {
		path = append(path, path[len(path)-1].Children[i])
	}
	return path
}

// randomAttach draws a random node that may carry children (not a value
// leaf), as the child indexes leading to it.
func randomAttach(rng *rand.Rand, root *tree.Node) []int {
	var all [][]int
	var rec func(n *tree.Node, idx []int)
	rec = func(n *tree.Node, idx []int) {
		if n.Kind == tree.Value {
			return
		}
		all = append(all, append([]int(nil), idx...))
		for i, c := range n.Children {
			rec(c, append(idx, i))
		}
	}
	rec(root, nil)
	return all[rng.Intn(len(all))]
}

// graftForest builds an incoming forest that exercises every case of the
// repair: brand-new trees, exact duplicates of existing children,
// dominated trees (an existing child minus a subtree), dominating trees
// (an existing child plus a subtree), duplicates within the forest, and
// the children of a sibling of the attach node carrying its marking — so
// the grown attach node comes to subsume that sibling and the repair has
// to reach up the spine.
func graftForest(rng *rand.Rand, path []*tree.Node) tree.Forest {
	attach := path[len(path)-1]
	var f tree.Forest
	if len(path) > 1 {
		for _, sib := range path[len(path)-2].Children {
			if sib != attach && sib.SameMarking(attach) && rng.Intn(2) == 0 {
				f = append(f, shuffleTree(rng, sib).Children...)
			}
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		f = append(f, randomTree(rng, 3))
	}
	for _, c := range attach.Children {
		switch rng.Intn(5) {
		case 0:
			f = append(f, shuffleTree(rng, c))
		case 1:
			d := shuffleTree(rng, c)
			if len(d.Children) > 0 {
				d.Children = d.Children[1:]
			}
			f = append(f, d)
		case 2:
			if c.Kind != tree.Value {
				d := shuffleTree(rng, c)
				d.Children = append(d.Children, randomTree(rng, 2))
				f = append(f, d)
			}
		}
	}
	if len(f) > 0 && rng.Intn(2) == 0 {
		f = append(f, shuffleTree(rng, f[rng.Intn(len(f))]))
	}
	rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	return f
}

// TestPropertyGraftIsLocalizedReduce pins the identities every writer of a
// document now rests on: grafting a forest anywhere into a reduced tree
// gives exactly the definitional append-then-reduce, keeps every memoized
// digest honest, and reports precisely what it attached and detached.
func TestPropertyGraftIsLocalizedReduce(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randomTree(rng, 4)
		base.Kind, base.Name = tree.Label, "r"
		base = subsume.Reduce(base)
		base.Digest() // fill every memo: a missed invalidation must show

		idx := randomAttach(rng, base)
		path := pathTo(base, idx)
		forest := graftForest(rng, path)
		forestBefore := forest.Copy()

		// The definitional result: raw append on a copy, reduce from scratch.
		want := base.Copy()
		wantAttach := pathTo(want, idx)
		n := wantAttach[len(wantAttach)-1]
		n.Children = append(n.Children, forest.Copy()...)
		tree.InvalidateDigestAll(want)
		oracle.ReduceInPlace(want)

		before := make([][]*tree.Node, len(path))
		for i, p := range path {
			before[i] = append([]*tree.Node(nil), p.Children...)
		}
		beforeHash := base.CanonicalHash()

		fresh, detached := subsume.Graft(path, forest)

		// (a) the definitional tree, up to ≡ and by digest.
		if !oracle.Equivalent(base, want) || base.Digest() != want.CanonicalHash() {
			t.Fatalf("seed %d: graft\n%s\nwant\n%s", seed, base.CanonicalString(), want.CanonicalString())
		}
		// (b) reduced, and known to be.
		if !subsume.IsReduced(base) || !base.KnownReduced() {
			t.Fatalf("seed %d: not reduced (flag %v): %s", seed, base.KnownReduced(), base.CanonicalString())
		}
		// (c) no stale memo anywhere.
		base.Walk(func(n, _ *tree.Node) bool {
			if n.Digest() != n.CanonicalHash() {
				t.Fatalf("seed %d: stale digest at %s", seed, n.CanonicalString())
			}
			return true
		})
		// (d) fresh and detached are exactly what the path's child lists
		// gained and lost; fresh trees hang under the attach node only.
		gained, lost := map[*tree.Node]int{}, map[*tree.Node]int{}
		for i, p := range path {
			old := map[*tree.Node]bool{}
			for _, c := range before[i] {
				old[c] = true
			}
			now := map[*tree.Node]bool{}
			for _, c := range p.Children {
				now[c] = true
				if !old[c] {
					if i != len(path)-1 {
						t.Fatalf("seed %d: a tree was attached above the attach node", seed)
					}
					gained[c]++
				}
			}
			for _, c := range before[i] {
				if !now[c] {
					lost[c]++
				}
			}
		}
		for _, f := range fresh {
			gained[f]--
		}
		for _, d := range detached {
			lost[d]--
		}
		for _, m := range []map[*tree.Node]int{gained, lost} {
			for n, k := range m {
				if k != 0 {
					t.Fatalf("seed %d: fresh/detached disagree with the child lists at %s (%+d)", seed, n.CanonicalString(), k)
				}
			}
		}
		// Nothing fresh means nothing happened; something fresh means the
		// tree strictly grew — the callers' only change test.
		if grew := base.CanonicalHash() != beforeHash; grew != (len(fresh) > 0) {
			t.Fatalf("seed %d: %d fresh trees but grew=%v", seed, len(fresh), grew)
		}
		if len(fresh) == 0 && len(detached) != 0 {
			t.Fatalf("seed %d: detached without attaching", seed)
		}
		// The incoming forest is the caller's: not modified, not aliased.
		if forest.CanonicalString() != forestBefore.CanonicalString() {
			t.Fatalf("seed %d: graft modified its input forest", seed)
		}
		for _, f := range fresh {
			for _, in := range forest {
				if f == in {
					t.Fatalf("seed %d: graft attached the caller's tree instead of a copy", seed)
				}
			}
		}
	}
}
