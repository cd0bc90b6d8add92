package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"axml/internal/pattern"
	"axml/internal/subsume"
	"axml/internal/subsume/oracle"
	"axml/internal/tree"
)

// deltaKeys is every row of p's MatchDelta on root through ix (nil: the
// walking plan) at baseline since, sorted.
func deltaKeys(ix *pattern.Index, p *pattern.Node, root *tree.Node, since uint64) []string {
	var v pattern.Vars
	c := v.Compile(p)
	var keys []string
	for _, r := range ix.MatchDelta(c, root, pattern.NewSlab(&v).Row(), since) {
		keys = append(keys, fmt.Sprintf("%x", r.AppendKey(nil, c.Slots())))
	}
	sort.Strings(keys)
	return keys
}

// redundantForest draws random trees and then repeats, trims and grows
// some of them, so the forest's siblings subsume each other.
func redundantForest(rng *rand.Rand) tree.Forest {
	base := appendRandDoc(rng, 3)
	return append(base.Children, overlapping(rng, base)...)
}

// TestPropertyRestoreAdoptsIntoEmptyDocument: restoring into a document
// that holds nothing yet adopts the incoming tree — and the result is
// the one the least upper bound defines: the union's digest, reduced,
// every installed node stamped with the one new version, the index
// answering like the walk at baselines below and at that version, the
// growth reported to the hook as appendAt reports it (replaying it into
// another empty document reproduces the digest), and the root node a
// subscriber registered before still the document root. A seed whose
// root marking differs (a replica seed's guessed label) adopts the
// marking first, on the same root node, one version earlier.
func TestPropertyRestoreAdoptsIntoEmptyDocument(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		incoming := tree.NewLabel("root")
		if seed%10 != 0 {
			incoming.Children = redundantForest(rng)
		}
		guess := seed%4 == 3
		seedRoot := tree.NewLabel("root")
		if guess {
			seedRoot = tree.NewLabel("guess")
		}
		want := oracle.Union(tree.NewLabel("root"), incoming.Copy())

		s := oneDocSystem(t, seedRoot)
		var hooked int
		var hookPath []GraftStep
		var hookFresh tree.Forest
		s.SetMutationHook(func(doc string, path []GraftStep, fresh tree.Forest) {
			if fresh == nil {
				return // the marking adoption: a whole-document change
			}
			hooked++
			hookPath, hookFresh = path, fresh
		})
		registered := s.Document("d").Root
		changed, err := s.Restore("d", incoming)
		if err != nil {
			t.Fatal(err)
		}
		root := s.Document("d").Root
		if root.Digest() != want.CanonicalHash() || !subsume.IsReduced(root) {
			t.Fatalf("seed %d: adopted\n%s\nwant the reduced union\n%s", seed, root.CanonicalString(), want.CanonicalString())
		}
		grew := len(root.Children) > 0
		if changed != (grew || guess) {
			t.Fatalf("seed %d: changed=%v, grew=%v", seed, changed, grew)
		}
		moves := uint64(0)
		if grew {
			moves = 1
		}
		if guess {
			moves++
		}
		if root != registered {
			t.Fatalf("seed %d: the document root node was replaced", seed)
		}
		v := s.docVersion["d"]
		if v != moves {
			t.Fatalf("seed %d: version %d, want %d", seed, v, moves)
		}
		for _, c := range root.Children {
			c.Walk(func(n, _ *tree.Node) bool {
				if n.Stamp != v {
					t.Fatalf("seed %d: an adopted node carries stamp %d, want %d", seed, n.Stamp, v)
				}
				return true
			})
		}

		if !grew {
			if hooked != 0 {
				t.Fatalf("seed %d: an empty restore reported a growth", seed)
			}
			continue
		}
		if hooked != 1 || len(hookPath) != 0 || len(hookFresh) != len(root.Children) {
			t.Fatalf("seed %d: hook saw %d growths, path %v, %d fresh trees; want 1, empty, %d",
				seed, hooked, hookPath, len(hookFresh), len(root.Children))
		}
		for i, f := range hookFresh {
			if f != root.Children[i] {
				t.Fatalf("seed %d: fresh tree %d is not the installed child", seed, i)
			}
		}
		replay := oneDocSystem(t, tree.NewLabel("root"))
		if _, err := replay.Append("d", replay.Document("d").Root, hookFresh.Copy()); err != nil {
			t.Fatal(err)
		}
		if replay.Document("d").Root.Digest() != root.Digest() {
			t.Fatalf("seed %d: replaying the reported growth gives\n%s\nwant\n%s",
				seed, replay.Document("d").Root.CanonicalString(), root.CanonicalString())
		}

		ix := s.Index("d")
		if ix.Root() != root || ix.Len() != root.Size() {
			t.Fatalf("seed %d: index over %d nodes of another root, document has %d", seed, ix.Len(), root.Size())
		}
		for pi := 0; pi < 8; pi++ {
			p := appendRandPattern(rng, 3)
			if p.Validate() != nil {
				continue
			}
			for _, since := range []uint64{v - 1, v} {
				for name, keys := range map[string]func(*pattern.Index, *pattern.Node, *tree.Node, uint64) []string{
					"MatchRows": stampedKeys, "MatchDelta": deltaKeys} {
					got, walk := keys(ix, p, root, since), keys(nil, p, root, since)
					if fmt.Sprint(got) != fmt.Sprint(walk) {
						t.Fatalf("seed %d since %d %s %s:\nindexed %v\nwalk    %v", seed, since, name, p, got, walk)
					}
				}
			}
		}
	}
}
