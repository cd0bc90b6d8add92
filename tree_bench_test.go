// BenchmarkTree measures the hash-consing/indexing layer on
// million-node documents: anchored pattern matching against the naive
// walk, and digest-accelerated Subsumed/Reduce/Union against the
// definitional algorithms (package subsume/oracle). Each operation runs as
// op/<variant>, so the fast/naive ratio reads off one run:
//
//	go test -run '^$' -bench 'BenchmarkTree$' -benchmem -benchtime 3x .
//
// Fast variants run after a digest warm-up: steady state for a live
// system, where every subtree was hashed when it was first merged.
package axml_test

import (
	"math/rand"
	"testing"

	"axml/internal/pattern"
	"axml/internal/subsume"
	"axml/internal/subsume/oracle"
	"axml/internal/tree"
	"axml/internal/workload"
)

// benchTreeNodes is the million-node document scale measured here.
const benchTreeNodes = 1_000_000

func BenchmarkTree(b *testing.B) {
	// ---- pattern matching: needle lookup in a 10⁶-node catalog ----
	doc := workload.Inventory(100, 2000) // 100 depts × 2000 items × 5 + needle ≈ 10⁶ nodes
	needle := pattern.Label("catalog",
		pattern.LVar("d",
			pattern.Label("item",
				pattern.Label("sku", pattern.Value("needle")),
				pattern.Label("qty", pattern.VVar("q")))))
	ix := pattern.NewIndex(doc) // build cost excluded: indexes live with the document

	b.Run("match/naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := rowKeys(nil, needle, doc); len(got) != 1 {
				b.Fatalf("got %d matches", len(got))
			}
		}
	})
	b.Run("match/indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := rowKeys(ix, needle, doc); len(got) != 1 {
				b.Fatalf("got %d matches", len(got))
			}
		}
	})

	// ---- subsumption / reduction / union on random redundant trees ----
	// The fast variants measure the steady state of a live monotone
	// system: trees that were reduced when they were last merged (digest
	// memos warm, reduced flags set), now re-checked or re-merged. The
	// naive variants run the definitional algorithms on the same trees.
	rng := rand.New(rand.NewSource(42))
	raw := workload.RandomTree(rng, workload.TreeConfig{Nodes: benchTreeNodes, Redundancy: 0.3})
	big := subsume.Reduce(raw)
	grown := big.Copy()
	grown.Add(workload.RandomTree(rng, workload.TreeConfig{Nodes: 64}))
	grown = subsume.Reduce(grown)
	_, _ = big.Digest(), grown.Digest()

	variants := []struct {
		name     string
		subsumed func(a, b *tree.Node) bool
		reduce   func(t *tree.Node) *tree.Node
		union    func(a, b *tree.Node) *tree.Node
	}{
		{"fast", subsume.Subsumed, subsume.ReduceInPlace, subsume.Union},
		{"naive", oracle.Subsumed, oracle.ReduceInPlace, oracle.Union},
	}

	for _, v := range variants {
		b.Run("subsumed/"+v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !v.subsumed(big, grown) {
					b.Fatal("expected big ⊆ grown")
				}
			}
		})
	}
	for _, v := range variants {
		// Re-reducing an already-reduced document: what every merge and
		// every out-of-band push pays before results are usable.
		// Reduction is idempotent, so the tree can be reused across
		// iterations.
		b.Run("reduce/"+v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v.reduce(big) == nil {
					b.Fatal("nil reduction")
				}
			}
		})
	}
	for _, v := range variants {
		b.Run("union/"+v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v.union(big, grown) == nil {
					b.Fatal("nil union")
				}
			}
		})
	}
}
