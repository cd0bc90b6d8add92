package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/workload"
)

// splitRunSystems are terminating systems of different shapes: a
// successor call per graph node, a transitive closure over a chain (joins
// that need several sweeps), the jazz portal, and seeded random simple
// systems (the ones that terminate within a budget).
func splitRunSystems(t *testing.T) map[string]func() *core.System {
	graph := func() *core.System {
		edges := workload.Edges(rand.New(rand.NewSource(3)), workload.RandomGraph, 12)
		var b strings.Builder
		b.WriteString("doc edges = g{")
		for i, e := range edges {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `e{a{%q},b{%q}}`, e[0], e[1])
		}
		b.WriteString("}\ndoc portal = p{")
		for i := 0; i < 12; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `node{name{"n%d"},!succ}`, i)
		}
		b.WriteString("}\nfunc succ = out{$y} :- context/node{name{$x}}, edges/g{e{a{$x},b{$y}}}\n")
		return core.MustParseSystem(b.String())
	}
	systems := map[string]func() *core.System{
		"graph": graph,
		"closure": func() *core.System {
			return core.MustParseSystem(`
doc  d0 = r{t{a{1},b{2}},t{a{2},b{3}},t{a{3},b{4}},t{a{4},b{5}},t{a{5},b{6}}}
doc  d1 = r{!g,!f}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`)
		},
		"jazz": func() *core.System {
			return workload.JazzSystem(rand.New(rand.NewSource(7)), workload.JazzConfig{CDs: 8, MaterializedRatio: 0.25})
		},
	}
	found := 0
	for seed := int64(0); seed < 40 && found < 6; seed++ {
		mk := func() *core.System {
			return workload.RandomSimpleSystem(rand.New(rand.NewSource(seed)), workload.SystemConfig{})
		}
		if res := mk().Run(core.RunOptions{Parallelism: 1, MaxSteps: 200}); !res.Terminated {
			continue
		}
		systems[fmt.Sprintf("random-%d", seed)] = mk
		found++
	}
	if found == 0 {
		t.Fatal("no terminating random system among the seeds")
	}
	return systems
}

// TestSplitRunsReachTheSingleRunFixpoint is the committed gate's oracle: a
// fixpoint reached through many runs cut short by a step budget — each
// starting from the gate the previous ones committed — equals the one a
// single run reaches, under both schedules. A gate committed for an
// attempt whose merge never ran (one cut off by the budget) would skip a
// call whose answer the system never received.
func TestSplitRunsReachTheSingleRunFixpoint(t *testing.T) {
	for name, mk := range splitRunSystems(t) {
		single := mk()
		if res := single.Run(core.RunOptions{Parallelism: 1}); !res.Terminated {
			t.Fatalf("%s: single run: %+v", name, res)
		}
		want := single.CanonicalString()
		for _, par := range []int{1, 2} {
			for budget := 1; budget <= 3; budget++ {
				s := mk()
				runs := 0
				for res := (core.RunResult{}); !res.Terminated; runs++ {
					if runs == 1000 {
						t.Fatalf("%s par %d budget %d: no fixpoint after %d runs", name, par, budget, runs)
					}
					res = s.Run(core.RunOptions{Parallelism: par, MaxSteps: budget})
					if res.Err != nil {
						t.Fatalf("%s par %d budget %d: %v", name, par, budget, res.Err)
					}
				}
				if got := s.CanonicalString(); got != want {
					t.Fatalf("%s par %d budget %d: %d runs reached\n%s\nwant\n%s", name, par, budget, runs, got, want)
				}
			}
		}
	}
}
