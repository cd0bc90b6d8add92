package workload

import (
	"context"
	"math/rand"
	"testing"

	"axml/internal/core"
	"axml/internal/lazy"
	"axml/internal/subsume"
	"axml/internal/tree"
)

func TestRandomTreeReproducibleAndSized(t *testing.T) {
	cfg := TreeConfig{Nodes: 200, Redundancy: 0.3, Funcs: []string{"f"}, FuncDensity: 0.1}
	a := RandomTree(rand.New(rand.NewSource(42)), cfg)
	b := RandomTree(rand.New(rand.NewSource(42)), cfg)
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatal("same seed produced different trees")
	}
	c := RandomTree(rand.New(rand.NewSource(43)), cfg)
	if a.CanonicalString() == c.CanonicalString() {
		t.Fatal("different seeds produced identical trees")
	}
	if a.Size() < 100 {
		t.Fatalf("tree too small: %d", a.Size())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeRedundancyIsReducible(t *testing.T) {
	cfg := TreeConfig{Nodes: 300, Redundancy: 0.8}
	n := RandomTree(rand.New(rand.NewSource(7)), cfg)
	reduced := subsume.Reduce(n)
	if reduced.Size() >= n.Size() {
		t.Fatalf("high-redundancy tree did not shrink: %d -> %d", n.Size(), reduced.Size())
	}
}

func TestInventoryShape(t *testing.T) {
	a, b := Inventory(4, 10), Inventory(4, 10)
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatal("Inventory is not deterministic")
	}
	// root + depts + 5 nodes per item + the 5-node needle item
	if want := 1 + 4 + 5*4*10 + 5; a.Size() != want {
		t.Fatalf("size %d, want %d", a.Size(), want)
	}
	needles := 0
	for _, dept := range a.Children {
		for _, item := range dept.Children {
			if item.Children[0].Children[0].Name == "needle" {
				needles++
			}
		}
	}
	if needles != 1 {
		t.Fatalf("%d needle items, want 1", needles)
	}
}

func TestJazzSystemRunsAndAnswers(t *testing.T) {
	s := JazzSystem(rand.New(rand.NewSource(1)), JazzConfig{CDs: 10, MaterializedRatio: 0.5, IrrelevantBranches: 2})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := lazy.Eval(context.Background(), s, RatingQuery(), core.RunOptions{MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatalf("jazz lazy eval did not stabilize: %+v", res)
	}
	if len(res.Answer) != 10 {
		t.Fatalf("ratings answered: %d, want 10", len(res.Answer))
	}
}

func TestJazzSystemNaiveDiverges(t *testing.T) {
	s := JazzSystem(rand.New(rand.NewSource(1)), JazzConfig{CDs: 3, IrrelevantBranches: 1})
	res := s.Run(core.RunOptions{MaxSteps: 50})
	if res.Terminated {
		t.Fatal("system with video feeds should not terminate")
	}
}

func TestEdgesShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if got := len(Edges(rng, Chain, 10)); got != 9 {
		t.Fatalf("chain edges = %d", got)
	}
	if got := len(Edges(rng, Cycle, 10)); got != 10 {
		t.Fatalf("cycle edges = %d", got)
	}
	if got := len(Edges(rng, BinaryTree, 15)); got != 14 {
		t.Fatalf("tree edges = %d", got)
	}
	if got := len(Edges(rng, RandomGraph, 10)); got != 20 {
		t.Fatalf("random edges = %d", got)
	}
}

func TestTCProgramFixpoint(t *testing.T) {
	p := TCProgram(Edges(nil, Chain, 5))
	db, _, err := p.SemiNaive()
	if err != nil {
		t.Fatal(err)
	}
	if db["tc"].Len() != 10 { // C(5,2)
		t.Fatalf("tc = %d", db["tc"].Len())
	}
}

func TestRandomTreeFuncDensity(t *testing.T) {
	cfg := TreeConfig{Nodes: 400, Funcs: []string{"f", "g"}, FuncDensity: 0.5}
	n := RandomTree(rand.New(rand.NewSource(9)), cfg)
	if n.CountFunc() == 0 {
		t.Fatal("no function nodes generated")
	}
	var foreign int
	n.Walk(func(nd, _ *tree.Node) bool {
		if nd.Kind == tree.Func && nd.Name != "f" && nd.Name != "g" {
			foreign++
		}
		return true
	})
	if foreign != 0 {
		t.Fatalf("foreign function names: %d", foreign)
	}
}

func TestRandomSimpleSystemShapes(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := RandomSimpleSystem(rand.New(rand.NewSource(seed)), SystemConfig{})
		if !s.IsSimple() || !s.IsPositive() {
			t.Fatalf("seed %d: not simple positive", seed)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.DocNames()) == 0 || len(s.FuncNames()) == 0 {
			t.Fatalf("seed %d: empty system", seed)
		}
		if s.CountCalls() == 0 {
			t.Fatalf("seed %d: no calls", seed)
		}
	}
}

func TestRandomSimpleSystemCustomConfig(t *testing.T) {
	cfg := SystemConfig{Docs: 4, Funcs: 6, Items: 2, Values: 3, RecursionProb: 0.9, CallsPerDoc: 3}
	s := RandomSimpleSystem(rand.New(rand.NewSource(3)), cfg)
	if len(s.DocNames()) != 4 || len(s.FuncNames()) != 6 {
		t.Fatalf("docs=%d funcs=%d", len(s.DocNames()), len(s.FuncNames()))
	}
	// Duplicate calls within a document collapse when the document is
	// reduced on add, so the count is bounded, not exact.
	if got := s.CountCalls(); got < 4 || got > 12 {
		t.Fatalf("calls = %d, want 4..12", got)
	}
}

func TestJazzSystemAllMaterialized(t *testing.T) {
	s := JazzSystem(rand.New(rand.NewSource(2)), JazzConfig{CDs: 5, MaterializedRatio: 1.0})
	// No GetRating calls remain; the query is answerable immediately.
	if got := s.CountCalls(); got != 0 {
		t.Fatalf("calls = %d", got)
	}
	ans, err := s.SnapshotQuery(RatingQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 5 {
		t.Fatalf("answers = %d", len(ans))
	}
}

func TestTreeConfigDefaults(t *testing.T) {
	n := RandomTree(rand.New(rand.NewSource(1)), TreeConfig{})
	if n.Size() < 2 {
		t.Fatalf("default tree too small: %d", n.Size())
	}
}
