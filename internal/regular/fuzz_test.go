package regular

import (
	"math/rand"
	"testing"

	"axml/internal/core"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
	"axml/internal/workload"
)

// Cross-validation on random simple positive systems: the graph-based
// termination decision must agree with the budgeted engine, and on
// terminating systems the graph's full unfoldings must equal the engine's
// fixpoint documents.
func TestFuzzGraphVsEngine(t *testing.T) {
	const trials = 60
	const engineBudget = 3000
	terminating, looping := 0, 0
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomSimpleSystem(rng, workload.SystemConfig{})

		verdict, g, err := Terminates(s, BuildOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		engine := s.Copy()
		res := engine.Run(core.RunOptions{MaxSteps: engineBudget})

		if verdict {
			terminating++
			if !res.Terminated {
				t.Fatalf("seed %d: graph says terminating, engine exhausted %d steps", seed, engineBudget)
			}
			for _, name := range s.DocNames() {
				unf, err := g.Roots[name].UnfoldFull()
				if err != nil {
					t.Fatalf("seed %d: unfold %s: %v", seed, name, err)
				}
				if !subsume.Equivalent(unf, engine.Document(name).Root) {
					t.Fatalf("seed %d: doc %s differs:\ngraph  %s\nengine %s",
						seed, name, unf.CanonicalString(),
						engine.Document(name).Root.CanonicalString())
				}
			}
		} else {
			looping++
			if res.Terminated {
				t.Fatalf("seed %d: graph says non-terminating, engine terminated in %d steps", seed, res.Steps)
			}
		}
	}
	if terminating == 0 || looping == 0 {
		t.Fatalf("fuzz workload not diverse: %d terminating, %d looping", terminating, looping)
	}
	t.Logf("fuzz: %d terminating, %d looping systems validated", terminating, looping)
}

// On terminating random systems, queries evaluated over the graph (i.e.
// over [I]) must match the engine's full results: simple queries through
// SnapshotQuery, queries with a tree variable (in the head, or in the body
// only) through QFinite, which must find them finite.
func TestFuzzGraphQueryVsEngine(t *testing.T) {
	queries := []string{
		`out{$x} :- d0/r{item{$x}}`,
		`got{$x} :- d0/r{item{$x,%l}}`,
		`p{a{$x},b{$y}} :- d0/r{item{$x}}, d1/r{item{$y}}, $x != $y`,
		`got{#T} :- d0/r{item{#T}}`,
		`some{$x} :- d0/r{item{$x},#T}`,
	}
	validated := 0
	for seed := int64(0); seed < 80 && validated < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomSimpleSystem(rng, workload.SystemConfig{})
		verdict, g, err := Terminates(s, BuildOptions{})
		if err != nil || !verdict {
			continue
		}
		engine := s.Copy()
		if res := engine.Run(core.RunOptions{}); !res.Terminated {
			t.Fatalf("seed %d: engine did not terminate", seed)
		}
		for _, src := range queries {
			q := syntax.MustParseQuery(src)
			finite, graphAns, err := true, tree.Forest(nil), error(nil)
			if q.IsSimple() {
				graphAns, err = g.SnapshotQuery(q)
			} else {
				finite, graphAns, err = g.QFinite(q)
			}
			if !finite {
				t.Fatalf("seed %d query %q: infinite answer on a terminating system", seed, src)
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			engineAns, err := engine.SnapshotQuery(q)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if graphAns.CanonicalString() != engineAns.CanonicalString() {
				t.Fatalf("seed %d query %q:\ngraph  %s\nengine %s",
					seed, src, graphAns.CanonicalString(), engineAns.CanonicalString())
			}
		}
		validated++
	}
	if validated < 5 {
		t.Fatalf("too few terminating systems validated: %d", validated)
	}
}
