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

// rowKey is the row key of a's bindings over every slot, its names
// numbered in sorted order.
func rowKey(a Assignment) string {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	var v Vars
	for _, name := range names {
		kind := VarValue
		if a[name].Tree != nil {
			kind = VarTree
		}
		v.Number(name, kind)
	}
	r, _ := NewSlab(&v).RowOf(a)
	all := make([]int, v.Len())
	for i := range all {
		all[i] = i
	}
	return string(r.AppendKey(nil, all))
}

// TestLegacyKeyAgreement pins the two schemes to the same dedup behavior:
// keys are opaque, so they need not be equal strings, but they must
// distinguish exactly the same assignments.
func TestLegacyKeyAgreement(t *testing.T) {
	a1 := benchAssignment(4)
	a2 := benchAssignment(4)
	a3 := benchAssignment(5)
	if rowKey(a1) != rowKey(a2) || legacyKey(a1) != legacyKey(a2) {
		t.Fatal("isomorphic assignments should key equal under both schemes")
	}
	if rowKey(a1) == rowKey(a3) || legacyKey(a1) == legacyKey(a3) {
		t.Fatal("distinct assignments should key differently under both schemes")
	}
}

// TestAssignmentKeyAndCopy: the row key of the same bindings does not
// depend on the order they were made in (trees enter by digest, so two
// isomorphic copies key alike), and Copy shares no storage.
func TestAssignmentKeyAndCopy(t *testing.T) {
	ab := func() *tree.Node { return tree.NewLabel("a", tree.NewLabel("b")) }
	a := Assignment{"x": {Atom: "1"}, "y": {Tree: ab()}}
	b := Assignment{"y": {Tree: ab()}, "x": {Atom: "1"}}
	if rowKey(a) != rowKey(b) {
		t.Fatal("row key is order dependent")
	}
	c := a.Copy()
	c["x"] = Binding{Atom: "2"}
	if a["x"].Atom != "1" {
		t.Fatal("Copy shares storage")
	}
	if rowKey(a) == rowKey(c) {
		t.Fatal("distinct bindings keyed alike")
	}
}
