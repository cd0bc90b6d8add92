// Differential tests for the interning/indexing fast paths: every
// accelerated operation — symbol-compared, digest-short-circuited
// subsumption and the index-anchored pattern matching — is pinned to its
// definitional counterpart (package subsume/oracle, the naive pattern
// walk) on seeded random inputs, and whole-system fixpoints are required
// to be byte-identical at every parallelism level and to pass the
// oracle's judgement. The fast paths are pure accelerators: any
// observable divergence is a bug by definition. (The indexes-dropped
// whole-system comparison lives in internal/core, next to its test hook.)
package axml_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"axml"
	"axml/internal/pattern"
	"axml/internal/subsume"
	"axml/internal/subsume/oracle"
	"axml/internal/tree"
	"axml/internal/workload"
)

func TestDifferentialSubsumed(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(101))
	cfg := workload.TreeConfig{Nodes: 120, Redundancy: 0.3, FuncDensity: 0.1, Funcs: []string{"f", "g"}}
	for trial := 0; trial < 40; trial++ {
		a := workload.RandomTree(rng, cfg)
		b := workload.RandomTree(rng, cfg)
		// Mix in related pairs, not just independent ones: a vs its own
		// copy, and a vs a grown variant, where subsumption actually holds
		// and the digest short-circuit fires.
		pairs := [][2]*tree.Node{{a, b}, {a, a.Copy()}}
		grown := a.Copy()
		grown.Add(workload.RandomTree(rng, workload.TreeConfig{Nodes: 10}))
		pairs = append(pairs, [2]*tree.Node{a, grown}, [2]*tree.Node{grown, a})
		for pi, pr := range pairs {
			fast := subsume.Subsumed(pr[0], pr[1])
			naive := oracle.Subsumed(pr[0], pr[1])
			if fast != naive {
				t.Fatalf("trial %d pair %d: fast Subsumed=%v, naive=%v", trial, pi, fast, naive)
			}
		}
	}
}

func TestDifferentialReduce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(202))
	cfg := workload.TreeConfig{Nodes: 150, Redundancy: 0.5}
	for trial := 0; trial < 30; trial++ {
		orig := workload.RandomTree(rng, cfg)
		fast, naive := subsume.Reduce(orig), oracle.Reduce(orig)
		// The reduced form is unique up to isomorphism (the paper's
		// Section 2.1), and CanonicalString is an isomorphism invariant.
		if fast.CanonicalString() != naive.CanonicalString() {
			t.Fatalf("trial %d: fast and naive Reduce disagree:\nfast  %s\nnaive %s",
				trial, fast, naive)
		}
		if !subsume.IsReduced(fast) {
			t.Fatalf("trial %d: fast Reduce left a reducible tree", trial)
		}
		if !subsume.Equivalent(fast, orig) {
			t.Fatalf("trial %d: Reduce changed the tree's meaning", trial)
		}
	}
}

func TestDifferentialUnion(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(303))
	cfg := workload.TreeConfig{Nodes: 100, Redundancy: 0.4}
	for trial := 0; trial < 30; trial++ {
		a := workload.RandomTree(rng, cfg)
		b := workload.RandomTree(rng, cfg)
		// Overlap the inputs so the union has real merging to do.
		b.Add(a.Children[0].Copy())
		fast, naive := subsume.Union(a, b), oracle.Union(a, b)
		if !subsume.Equivalent(fast, naive) {
			t.Fatalf("trial %d: fast and naive Union not equivalent:\nfast  %s\nnaive %s",
				trial, fast, naive)
		}
		// Both are least upper bounds: they dominate the inputs.
		if !subsume.Subsumed(a, fast) || !subsume.Subsumed(b, fast) {
			t.Fatalf("trial %d: fast Union does not dominate its inputs", trial)
		}
	}
}

// rowKeys is the row key of every match of p at doc through ix, the tree
// walk when ix is nil.
func rowKeys(ix *pattern.Index, p *pattern.Node, doc *tree.Node) []string {
	var v pattern.Vars
	c := v.Compile(p)
	var keys []string
	for _, r := range ix.MatchRows(c, doc, pattern.NewSlab(&v).Row(), math.MaxUint64) {
		keys = append(keys, string(r.AppendKey(nil, c.Slots())))
	}
	return keys
}

// TestDifferentialIndexedMatchWorkload pins indexed matching to the naive
// walk on workload-generated documents, with patterns drawn over the
// generator's marking alphabet.
func TestDifferentialIndexedMatchWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	cfg := workload.TreeConfig{Nodes: 400, Redundancy: 0.3, FuncDensity: 0.15, Funcs: []string{"f", "g"}}
	patterns := []*pattern.Node{
		pattern.Label("root", pattern.Label("l0", pattern.VVar("x"))),
		pattern.Label("root", pattern.LVar("a", pattern.Label("l1", pattern.Value("v0")))),
		pattern.Label("root", pattern.LVar("a", pattern.LVar("b", pattern.TVar("T")))),
		pattern.Label("root", pattern.Label("l2", pattern.Func("f"))),
		pattern.Label("root", pattern.Label("l3", pattern.Label("l3", pattern.VVar("x")))),
		pattern.Label("root", pattern.Label("nope", pattern.VVar("x"))),
		pattern.LVar("r", pattern.FVar("fn")),
	}
	for trial := 0; trial < 12; trial++ {
		doc := workload.RandomTree(rng, cfg)
		ix := pattern.NewIndex(doc)
		for pi, p := range patterns {
			naive := rowKeys(nil, p, doc)
			indexed := rowKeys(ix, p, doc)
			if len(naive) != len(indexed) {
				t.Fatalf("trial %d pattern %d: naive %d results, indexed %d",
					trial, pi, len(naive), len(indexed))
			}
			seen := make(map[string]bool, len(naive))
			for _, k := range naive {
				seen[k] = true
			}
			for _, k := range indexed {
				if !seen[k] {
					t.Fatalf("trial %d pattern %d: indexed produced extra result %x",
						trial, pi, k)
				}
			}
		}
	}
}

// TestFixpointInvariantUnderAcceleration runs the graph, jazz and random
// simple-system workloads to their fixpoint at every parallelism level,
// requires byte-identical canonical forms against the Parallelism 1
// sweep, and has the slow definitional algorithms judge every final
// document: reduced, and equivalent to the reference.
func TestFixpointInvariantUnderAcceleration(t *testing.T) {
	if testing.Short() {
		t.Skip("fixpoint matrix is slow")
	}
	systems := []struct {
		name string
		mk   func() *axml.System
	}{
		{"graph", func() *axml.System { return graphBenchSystem(24) }},
		{"jazz", func() *axml.System { return jazzBenchSystem(16) }},
		{"simple", func() *axml.System {
			rng := rand.New(rand.NewSource(55))
			return workload.RandomSimpleSystem(rng, workload.SystemConfig{Docs: 2, Funcs: 3, Items: 4})
		}},
	}
	for _, sys := range systems {
		ref := sys.mk()
		res := ref.Run(axml.RunOptions{Parallelism: 1, MaxSteps: 20000})
		if res.Err != nil {
			t.Fatalf("%s reference run: %v", sys.name, res.Err)
		}
		if !res.Terminated {
			// A random simple system may be non-terminating; the matrix
			// only makes sense on terminating ones.
			t.Logf("%s did not terminate within budget; skipping", sys.name)
			continue
		}
		want := ref.CanonicalString()
		for _, par := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/par-%d", sys.name, par)
			s := sys.mk()
			res := s.Run(axml.RunOptions{Parallelism: par, MaxSteps: 20000})
			if res.Err != nil || !res.Terminated {
				t.Fatalf("%s: run failed: %+v", name, res)
			}
			if got := s.CanonicalString(); got != want {
				t.Fatalf("%s: fixpoint diverged from reference", name)
			}
			for _, doc := range s.DocNames() {
				got, refRoot := s.Document(doc).Root, ref.Document(doc).Root
				if oracle.Reduce(got).Size() != got.Size() {
					t.Fatalf("%s: document %s is not reduced by the definitional algorithm", name, doc)
				}
				if !oracle.Equivalent(got, refRoot) {
					t.Fatalf("%s: document %s not equivalent to the reference by the definitional algorithm", name, doc)
				}
			}
		}
	}
}

// TestIndexStatsReported checks a real run on an index-friendly system
// reports index activity through RunStats.
func TestIndexStatsReported(t *testing.T) {
	s := jazzBenchSystem(12)
	res := s.Run(axml.RunOptions{Parallelism: 1})
	if res.Err != nil || !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	if res.Stats.IndexHits+res.Stats.IndexMisses == 0 {
		t.Fatal("indexing enabled but no index activity reported")
	}
}
