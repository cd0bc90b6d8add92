package query_test

import (
	"math/rand"
	"testing"

	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// TestSemiNaiveIdentity pins the identity delta evaluation rests on
// (Proposition 3.1): after a document only grew, the full snapshot is the
// old snapshot plus the assignments with a witness in the delta,
//
//	Snapshot(after) ≡ ReduceForest(Snapshot(before) ∪ SnapshotSince(after, stamps(before)))
//
// on random documents grown by random stamped appends, walking and through
// indexes, for joins, self-joins, label/tree variables, inequalities and
// the empty body.
func TestSemiNaiveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	labels := []string{"a", "b", "c"}
	values := []string{"1", "2", "3"}
	var randTree func(depth int) *tree.Node
	randTree = func(depth int) *tree.Node {
		if depth == 0 || rng.Intn(4) == 0 {
			return tree.NewValue(values[rng.Intn(len(values))])
		}
		n := tree.NewLabel(labels[rng.Intn(len(labels))])
		for i := 0; i < 1+rng.Intn(3); i++ {
			n.Add(randTree(depth - 1))
		}
		return n
	}
	// grow appends k fresh subtrees, stamped v, under random label nodes.
	grow := func(doc *tree.Node, k int, v uint64) {
		var hosts []*tree.Node
		doc.Walk(func(n, _ *tree.Node) bool {
			if n.Kind == tree.Label {
				hosts = append(hosts, n)
			}
			return true
		})
		for i := 0; i < k; i++ {
			sub := randTree(2)
			sub.StampAll(v)
			hosts[rng.Intn(len(hosts))].Add(sub)
		}
	}
	queries := []*query.Query{
		q(t, `out{$x} :- d/r{a{$x}}`),
		q(t, `pair{$x,$y} :- d/r{a{$x}}, e/r{b{$y}}`),
		q(t, `join{$x} :- d/r{%l{$x}}, e/r{%l{$x}}`),
		q(t, `self{$x,$y} :- d/r{a{b{$x}}}, d/r{a{c{$y}}}, $x != $y`),
		q(t, `sub{#T} :- d/r{a{#T}}, e/r{b}`),
		q(t, `deep{%l} :- e/r{%l{%m{$v}}}, d/r{%m}, $v != "2"`),
		q(t, `always :-`),
	}
	same := func(a, b tree.Forest) bool {
		return subsume.ReduceForest(a).CanonicalString() == subsume.ReduceForest(b).CanonicalString()
	}
	for trial := 0; trial < 60; trial++ {
		before, after := query.Docs{}, query.Docs{}
		since := map[string]uint64{}
		ixs := query.Indexes{}
		for _, name := range []string{"d", "e"} {
			base := uint64(1 + rng.Intn(3))
			doc := tree.NewLabel("r")
			for i := 0; i < 2+rng.Intn(4); i++ {
				doc.Add(randTree(3))
			}
			doc.StampAll(base)
			before[name] = doc.Copy()
			grow(doc, rng.Intn(4), base+1)
			grow(doc, rng.Intn(3), base+2)
			after[name], since[name], ixs[name] = doc, base, pattern.NewIndex(doc)
		}
		for _, qq := range queries {
			old, err := query.Snapshot(qq, before)
			if err != nil {
				t.Fatal(err)
			}
			full, err := query.Snapshot(qq, after)
			if err != nil {
				t.Fatal(err)
			}
			for what, ix := range map[string]query.Indexes{"walk": nil, "indexed": ixs} {
				delta, err := query.SnapshotSince(qq, after, since, ix)
				if err != nil {
					t.Fatal(err)
				}
				if got := append(old.Copy(), delta...); !same(full, got) {
					t.Fatalf("trial %d %s, %s:\nfull      %s\nold+delta %s\ndelta     %s",
						trial, what, qq, full.CanonicalString(),
						subsume.ReduceForest(got).CanonicalString(), delta.CanonicalString())
				}
				all, err := query.SnapshotSince(qq, after, nil, ix)
				if err != nil {
					t.Fatal(err)
				}
				if !same(full, all) {
					t.Fatalf("trial %d %s, %s: nil baseline gave %s, Snapshot %s",
						trial, what, qq, all.CanonicalString(), full.CanonicalString())
				}
			}
		}
	}
	// The empty body has no atom to be new through: only "no baseline at
	// all" may yield its head, a baseline (even an empty one) must not.
	always := queries[len(queries)-1]
	if got, err := query.SnapshotSince(always, query.Docs{}, nil, nil); err != nil || len(got) != 1 {
		t.Fatalf("empty body, nil baseline: %v, %v; want the head", got, err)
	}
	if got, err := query.SnapshotSince(always, query.Docs{}, map[string]uint64{}, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty body, empty baseline: %v, %v; want nothing new", got, err)
	}
}
