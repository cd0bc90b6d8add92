package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"axml/internal/pattern"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// lazyStep applies one random growth to systems holding "d" (random
// content) and "e" (an empty seed under a guessed label): an append of a
// forest overlapping a random node's children (growth and pruning), a
// wide append whose siblings one tree then prunes (a Compact's worth of
// dead entries), a by-hand edit with Touch, or an adoption by "e". The
// step is drawn once and applied to every system in sys, which must hold
// equal documents with equal child orders, so the same walk position
// names the same node in each.
func lazyStep(t *testing.T, rng *rand.Rand, sys ...*System) {
	t.Helper()
	var apply func(s *System) error
	switch op := rng.Intn(6); {
	case op <= 2:
		var nodes []*tree.Node
		sys[0].Document("d").Root.Walk(func(n, _ *tree.Node) bool {
			if n.Kind != tree.Value {
				nodes = append(nodes, n)
			}
			return true
		})
		at := rng.Intn(len(nodes))
		forest := overlapping(rng, nodes[at])
		apply = func(s *System) error {
			var i int
			var parent *tree.Node
			s.Document("d").Root.Walk(func(n, _ *tree.Node) bool {
				if n.Kind != tree.Value {
					if i == at {
						parent = n
					}
					i++
				}
				return parent == nil
			})
			_, err := s.Append("d", parent, forest.Copy())
			return err
		}
	case op == 3:
		// 50 trees of 21 nodes, w{b0{bit},…,b9{bit}} over distinct
		// codes, all below w{b0{"0","1"},…}: 1050 dead nodes.
		wide, all := make(tree.Forest, 50), tree.NewLabel(fmt.Sprintf("w%d", rng.Int63()))
		for i := range wide {
			wide[i] = tree.NewLabel(all.Name)
			for b := 0; b < 10; b++ {
				wide[i].Add(tree.NewLabel(fmt.Sprintf("b%d", b), tree.NewValue(fmt.Sprint(i>>b&1))))
			}
		}
		for b := 0; b < 10; b++ {
			all.Add(tree.NewLabel(fmt.Sprintf("b%d", b), tree.NewValue("0"), tree.NewValue("1")))
		}
		apply = func(s *System) error {
			root := s.Document("d").Root
			if _, err := s.Append("d", root, wide.Copy()); err != nil {
				return err
			}
			_, err := s.Append("d", root, tree.Forest{all.Copy()})
			return err
		}
	case op == 4:
		edit := fmt.Sprintf("edit%d", rng.Int63())
		apply = func(s *System) error {
			root := s.Document("d").Root
			root.Children = append(root.Children, tree.NewLabel(edit))
			root.InvalidateDigest()
			s.Touch("d")
			return nil
		}
	default:
		incoming := appendRandDoc(rng, 2)
		apply = func(s *System) error {
			_, err := s.Restore("e", incoming.Copy())
			return err
		}
	}
	for _, s := range sys {
		if err := apply(s); err != nil {
			t.Fatal(err)
		}
	}
}

// hasDelta is HasDelta over a pattern on root through ix.
func hasDelta(ix *pattern.Index, p *pattern.Node, root *tree.Node, since uint64) bool {
	var v pattern.Vars
	c := v.Compile(p)
	return ix.HasDelta(c, root, pattern.NewSlab(&v).Row(), since)
}

// TestLazyIndexAnswersLikeEager: an index built by its first match —
// after appends, prunes, a Compact's worth of pruning, a Touch or an
// adoption it did not maintain — answers MatchRows, MatchDelta, HasDelta
// and Len exactly like an index of the same history built at load and
// after every replacement (the eager index), and like the walk, and
// Selectivity like a fresh build over the same tree; and so it goes on
// answering once maintained from its build on.
func TestLazyIndexAnswersLikeEager(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy := NewSystem()
		for _, d := range []*tree.Document{tree.NewDocument("d", appendRandDoc(rng, 3)), tree.NewDocument("e", tree.NewLabel("guess"))} {
			if err := lazy.AddDocument(d); err != nil {
				t.Fatal(err)
			}
		}
		eager := lazy.Copy()
		build := func() {
			for _, name := range eager.DocNames() {
				eager.Index(name).Len()
			}
		}
		build()
		for phase := 0; phase < 2; phase++ {
			for step := rng.Intn(6); step >= 0; step-- {
				lazyStep(t, rng, eager, lazy)
				build()
			}
			if phase == 0 && (lazy.IndexBuilds() != 0 || lazy.Index("d").Builds() != 0) {
				t.Fatalf("seed %d: growth built an index nobody matched", seed)
			}
			for _, name := range lazy.DocNames() {
				lix, eix := lazy.Index(name), eager.Index(name)
				lroot, eroot := lazy.Document(name).Root, eager.Document(name).Root
				// Selectivity counts the dead entries a maintained index
				// has not swept yet: a first build equals a fresh one's.
				unbuilt, fresh := lix.Builds() == 0, pattern.NewIndex(lroot)
				if lroot.Digest() != eroot.Digest() || lazy.docVersion[name] != eager.docVersion[name] {
					t.Fatalf("seed %d: the twin histories diverged on %s", seed, name)
				}
				for pi := 0; pi < 6; pi++ {
					p := appendRandPattern(rng, 3)
					if p.Validate() != nil {
						continue
					}
					if pi%2 == 0 {
						p.Name = lroot.Name
					}
					var lv, fv pattern.Vars
					if l, f := lix.Selectivity(lv.Compile(p)), fresh.Selectivity(fv.Compile(p)); unbuilt && l != f {
						t.Fatalf("seed %d %s %s: Selectivity %d, a fresh build's %d", seed, name, p, l, f)
					}
					for since := uint64(0); since <= lazy.docVersion[name]; since++ {
						for what, keys := range map[string]func(*pattern.Index, *pattern.Node, *tree.Node, uint64) []string{
							"MatchRows": stampedKeys, "MatchDelta": deltaKeys} {
							got, want, walk := keys(lix, p, lroot, since), keys(eix, p, eroot, since), keys(nil, p, lroot, since)
							if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != fmt.Sprint(walk) {
								t.Fatalf("seed %d %s since %d %s %s:\nlazy  %v\neager %v\nwalk  %v", seed, name, since, what, p, got, want, walk)
							}
						}
						if l, e := hasDelta(lix, p, lroot, since), hasDelta(eix, p, eroot, since); l != e {
							t.Fatalf("seed %d %s since %d %s: HasDelta %v, eager %v", seed, name, since, p, l, e)
						}
					}
				}
				if lix.Len() != eix.Len() || lix.Len() != lroot.Size() {
					t.Fatalf("seed %d %s: Len %d, eager %d, document %d nodes", seed, name, lix.Len(), eix.Len(), lroot.Size())
				}
			}
		}
	}
}

// TestLazyIndexConcurrentFirstMatch: readers racing to make the first
// match on an unbuilt index, under View, build it once and agree (run it
// with -race).
func TestLazyIndexConcurrentFirstMatch(t *testing.T) {
	root := tree.NewLabel("root")
	for i := 0; i < 300; i++ {
		root.Add(tree.NewLabel("a", tree.NewValue(fmt.Sprintf("u%d", i)), tree.NewLabel("b", tree.NewValue(fmt.Sprintf("v%d", i%7)))))
	}
	s := oneDocSystem(t, root)
	p := pattern.Label("root", pattern.Label("a", pattern.Value("u17"), pattern.VVar("x")))
	var wg sync.WaitGroup
	got := make([]string, 16)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.View(func() {
				ix, d := s.Index("d"), s.Document("d").Root
				if ix.Root() != d {
					t.Error("the index is not over the document root")
				}
				var v pattern.Vars
				c := v.Compile(p)
				sel := ix.Selectivity(c)
				got[g] = fmt.Sprint(stampedKeys(ix, p, d, 0), deltaKeys(ix, p, d, 0), hasDelta(ix, p, d, 0), sel, ix.Len())
				s.IndexStats()
				s.IndexBuilds()
			})
		}()
	}
	wg.Wait()
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatalf("readers disagree:\n%s\n%s", got[0], g)
		}
	}
	if n := s.IndexBuilds(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
}

// swapping is a black box whose once-per-run Version read (taken outside
// the system's lock, mid-run) replaces indexes: it runs swap in an Update.
type swapping struct {
	*GoService
	swap func()
}

func (sv swapping) Version(context.Context) string {
	sv.swap()
	return ""
}

// TestIndexStatsSurviveIndexSwaps: a Touch and an adoption landing in the
// middle of a run replace two documents' indexes, counters included. The
// system's counters must stay monotone and the run's deltas small: they
// are unsigned, and a counter going back wraps them.
func TestIndexStatsSurviveIndexSwaps(t *testing.T) {
	s := MustParseSystem(`
doc src = r{v{1},v{2},w{3}}
doc seen = log{e{1}}
doc replica = guess
func copy = got{$x} :- src/r{v{$x}}, seen/log{e{$x}}
`)
	// Matches before the run: the indexes Touch and the adoption replace
	// hold hits and misses.
	var v pattern.Vars
	c := v.Compile(pattern.Label("log", pattern.Label("e", pattern.VVar("x"))))
	s.View(func() {
		for i := 0; i < 50; i++ {
			s.Index("seen").MatchRows(c, s.Document("seen").Root, pattern.NewSlab(&v).Row(), 0)
			s.Index("replica").MatchRows(c, s.Document("replica").Root, pattern.NewSlab(&v).Row(), 0)
		}
	})
	if err := s.AddService(swapping{&GoService{Name: "box", Fn: func(context.Context, Binding) (tree.Forest, error) {
		return tree.Forest{tree.NewLabel("boxed")}, nil
	}}, func() {
		s.Update(func() {
			s.Touch("seen")
			if _, err := s.Restore("replica", syntax.MustParseDocument(`db{x{1}}`)); err != nil {
				t.Error(err)
			}
		})
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`top{!copy,!box}`))); err != nil {
		t.Fatal(err)
	}
	var h0, m0, b0 uint64
	s.View(func() { h0, m0 = s.IndexStats(); b0 = s.IndexBuilds() })
	res := s.Run(RunOptions{Parallelism: 1})
	if !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	var h1, m1, b1 uint64
	s.View(func() { h1, m1 = s.IndexStats(); b1 = s.IndexBuilds() })
	if h1 < h0 || m1 < m0 || b1 < b0 {
		t.Fatalf("index counters went back across the swaps: hits %d→%d misses %d→%d builds %d→%d", h0, h1, m0, m1, b0, b1)
	}
	st := res.Stats
	if st.IndexHits != h1-h0 || st.IndexMisses != m1-m0 || st.IndexBuilds != b1-b0 || st.IndexHits+st.IndexMisses > 1000 {
		t.Fatalf("run deltas hits %d misses %d builds %d; the system moved %d, %d, %d", st.IndexHits, st.IndexMisses, st.IndexBuilds, h1-h0, m1-m0, b1-b0)
	}
}

// hookCall is one mutation-hook call, rendered.
type hookCall struct {
	doc, path, fresh string
}

// recordHook registers a hook on s appending each call to *log.
func recordHook(s *System, log *[]hookCall) {
	s.SetMutationHook(func(doc string, path []GraftStep, fresh tree.Forest) {
		c := hookCall{doc: doc, path: fmt.Sprint(path), fresh: "<whole>"}
		if fresh != nil {
			var fs []string
			for _, f := range fresh {
				fs = append(fs, f.CanonicalString())
			}
			slices.Sort(fs)
			c.fresh = fmt.Sprint(fs)
		}
		*log = append(*log, c)
	})
}

// TestPropertyRestoreAllIsTheRestoreLoop: RestoreAll of a random document
// list — names repeated, empty seeds, non-empty seeds, a seed under a
// guessed label, now and then an unknown name — leaves the digests, the
// versions and the hook's call sequence of Restore called on each in turn,
// and fails where the loop fails.
func TestPropertyRestoreAllIsTheRestoreLoop(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seeds := []*tree.Document{
			tree.NewDocument("a", tree.NewLabel("root")),
			tree.NewDocument("b", tree.NewLabel("root")),
			tree.NewDocument("c", appendRandDoc(rng, 2)),
			tree.NewDocument("g", tree.NewLabel("guess")),
		}
		var docs []*tree.Document
		for i := 1 + rng.Intn(8); i > 0; i-- {
			name := []string{"a", "b", "c", "g", "a", "g"}[rng.Intn(6)]
			if rng.Intn(20) == 0 {
				name = "unknown"
			}
			in := tree.NewLabel("root")
			if rng.Intn(6) != 0 {
				in = appendRandDoc(rng, 3)
				in.Children = append(in.Children, overlapping(rng, in)...)
			}
			docs = append(docs, tree.NewDocument(name, in))
		}
		var sys [2]*System
		var logs [2][]hookCall
		for i := range sys {
			sys[i] = NewSystem()
			for _, d := range seeds {
				if err := sys[i].AddDocument(tree.NewDocument(d.Name, d.Root.Copy())); err != nil {
					t.Fatal(err)
				}
			}
			recordHook(sys[i], &logs[i])
		}
		copies := func() []*tree.Document {
			out := make([]*tree.Document, len(docs))
			for i, d := range docs {
				out[i] = tree.NewDocument(d.Name, d.Root.Copy())
			}
			return out
		}
		allErr := sys[0].RestoreAll(copies())
		var loopErr error
		for _, d := range copies() {
			if _, loopErr = sys[1].Restore(d.Name, d.Root); loopErr != nil {
				break
			}
		}
		if (allErr == nil) != (loopErr == nil) {
			t.Fatalf("seed %d: RestoreAll error %v, the loop's %v", seed, allErr, loopErr)
		}
		for _, d := range seeds {
			all, loop := sys[0].Document(d.Name).Root, sys[1].Document(d.Name).Root
			if all.Digest() != loop.Digest() || sys[0].docVersion[d.Name] != sys[1].docVersion[d.Name] {
				t.Fatalf("seed %d %s: RestoreAll\n%s (version %d)\nthe loop\n%s (version %d)", seed, d.Name,
					all.CanonicalString(), sys[0].docVersion[d.Name], loop.CanonicalString(), sys[1].docVersion[d.Name])
			}
		}
		if fmt.Sprint(logs[0]) != fmt.Sprint(logs[1]) {
			t.Fatalf("seed %d: RestoreAll's hook calls\n%v\nthe loop's\n%v", seed, logs[0], logs[1])
		}
	}
}
