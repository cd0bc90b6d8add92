package pattern

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"axml/internal/tree"
)

// legacyKey reimplements the pre-optimization Assignment.Key — sort.Strings
// over a fresh slice, string concatenation, and tree bindings serialized
// through CanonicalString — as the baseline BenchmarkAssignmentKey measures
// the row key the matcher and the join use against, and as refMatch's
// key, which shares no code with either.
func legacyKey(a Assignment) string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		b := a[n]
		if b.Tree != nil {
			parts = append(parts, n+"=t:"+b.Tree.CanonicalString())
		} else {
			parts = append(parts, n+"=a:"+b.Atom)
		}
	}
	return strings.Join(parts, "|")
}

// benchAssignment mixes atom and tree bindings the way query dedup sees
// them: a few atoms plus a tree variable bound to a non-trivial subtree.
func benchAssignment(treeNodes int) Assignment {
	sub := tree.NewLabel("cd")
	for i := 0; i < treeNodes; i++ {
		sub.Add(tree.NewLabel("track",
			tree.NewValue(fmt.Sprintf("title-%d", i)),
			tree.NewValue(fmt.Sprintf("%d:%02d", i%9, i%60)),
		))
	}
	return Assignment{
		"title":  {Atom: "Naima"},
		"artist": {Atom: "John Coltrane"},
		"style":  {Atom: "Jazz"},
		"T":      {Tree: sub},
	}
}

// BenchmarkAssignmentKey keys the same bindings as a row — slots encoded
// into a reused buffer, tree bindings by digest, no names — and through
// legacyKey.
func BenchmarkAssignmentKey(b *testing.B) {
	for _, nodes := range []int{4, 64} {
		a := benchAssignment(nodes)
		var v Vars
		for name, bd := range a {
			kind := VarValue
			if bd.Tree != nil {
				kind = VarTree
			}
			v.Number(name, kind)
		}
		r, _ := NewSlab(&v).RowOf(a)
		all := []int{0, 1, 2, 3}
		// Warm the digest memo: steady-state dedup rekeys rows whose
		// subtrees were already hashed during matching.
		key := r.AppendKey(nil, all)

		b.Run(fmt.Sprintf("row/tree-%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				key = r.AppendKey(key[:0], all)
			}
		})
		b.Run(fmt.Sprintf("legacy/tree-%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = legacyKey(a)
			}
		})
	}
}

// TestLegacyKeyAgreement pins the two schemes to the same dedup behavior:
// keys are opaque, so they need not be equal strings, but they must
// distinguish exactly the same assignments.
func TestLegacyKeyAgreement(t *testing.T) {
	a1 := benchAssignment(4)
	a2 := benchAssignment(4)
	a3 := benchAssignment(5)
	if a1.Key() != a2.Key() || legacyKey(a1) != legacyKey(a2) {
		t.Fatal("isomorphic assignments should key equal under both schemes")
	}
	if a1.Key() == a3.Key() || legacyKey(a1) == legacyKey(a3) {
		t.Fatal("distinct assignments should key differently under both schemes")
	}
}
