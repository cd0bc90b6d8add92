// Package bench is the experiment harness behind cmd/axml-experiments
// (full size) and TestExperimentsSmall (small size). The paper is a
// theory paper: its "evaluation" is a set of theorems, worked examples
// and complexity claims, so every experiment here reproduces one formal
// claim as a measurement (the per-experiment index lives in DESIGN.md;
// the recorded outcomes in EXPERIMENTS.md). Each function prints one
// table and returns an error if the claim's qualitative shape fails to
// hold — benches double as end-to-end checks.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"axml/internal/core"
	"axml/internal/datalog"
	"axml/internal/query"
	"axml/internal/regular"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
	"axml/internal/workload"
)

const seed = 20040614 // PODS 2004, June 14

// E1Reduce measures subsumption and reduction scaling (Proposition 2.1:
// PTIME; unique reduced version regardless of sibling order).
func E1Reduce(w io.Writer, sizes []int) error {
	fmt.Fprintln(w, "E1 — reduction & subsumption (Prop 2.1)")
	fmt.Fprintln(w, "nodes\treduced\tsubsume(us)\treduce(us)\tunique")
	var prev float64
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.TreeConfig{Nodes: n, Redundancy: 0.5}
		t1 := workload.RandomTree(rng, cfg)
		t2 := t1.Copy()

		start := time.Now()
		subsume.Subsumed(t1, t2)
		subTime := time.Since(start)

		start = time.Now()
		r1 := subsume.Reduce(t1)
		redTime := time.Since(start)

		// Uniqueness: shuffle siblings, reduce, compare canonically.
		shuffled := shuffle(rand.New(rand.NewSource(seed+1)), t1)
		r2 := subsume.Reduce(shuffled)
		unique := r1.CanonicalString() == r2.CanonicalString()
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\t%v\n",
			t1.Size(), r1.Size(), us(subTime), us(redTime), unique)
		if !unique {
			return fmt.Errorf("E1: reduced version not unique at n=%d", n)
		}
		if r1.Size() > t1.Size() {
			return fmt.Errorf("E1: reduction grew the tree at n=%d", n)
		}
		prev = us(redTime)
		_ = prev
	}
	return nil
}

func shuffle(rng *rand.Rand, n *tree.Node) *tree.Node {
	c := &tree.Node{Kind: n.Kind, Name: n.Name}
	for _, i := range rng.Perm(len(n.Children)) {
		c.Children = append(c.Children, shuffle(rng, n.Children[i]))
	}
	return c
}

func us(d time.Duration) float64 { return float64(d.Microseconds()) }

const tcSystemSrc = `
doc  d0 = r{%s}
doc  d1 = r{!g,!f}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`

func tcSystem(edges [][2]string) *core.System {
	body := ""
	for i, e := range edges {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`t{a{"%s"},b{"%s"}}`, e[0], e[1])
	}
	return core.MustParseSystem(fmt.Sprintf(tcSystemSrc, body))
}

// E2Confluence checks Theorem 2.1: all fair schedules of a terminating
// system converge to the same limit.
func E2Confluence(w io.Writer, schedules int) error {
	fmt.Fprintln(w, "E2 — confluence of fair rewritings (Thm 2.1)")
	fmt.Fprintln(w, "scheduler\tsteps\tattempts\tsweeps\tsame-limit")
	edges := workload.Edges(rand.New(rand.NewSource(seed)), workload.Chain, 6)
	var canon string
	scheds := []struct {
		name string
		s    core.Scheduler
	}{
		{"round-robin", core.RoundRobin{}},
		{"reverse", core.Reverse{}},
	}
	for i := 0; i < schedules; i++ {
		scheds = append(scheds, struct {
			name string
			s    core.Scheduler
		}{fmt.Sprintf("random-%d", i), core.NewRandom(int64(i))})
	}
	for i, sc := range scheds {
		s := tcSystem(edges)
		// Parallelism 1: the sweep is the schedule a Scheduler orders.
		res := s.Run(core.RunOptions{Scheduler: sc.s, Parallelism: 1})
		if !res.Terminated {
			return fmt.Errorf("E2: scheduler %s did not terminate", sc.name)
		}
		c := s.CanonicalString()
		same := i == 0 || c == canon
		if i == 0 {
			canon = c
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\n", sc.name, res.Steps, res.Attempts, res.Sweeps, same)
		if !same {
			return fmt.Errorf("E2: scheduler %s reached a different limit", sc.name)
		}
	}
	return nil
}

// E3Snapshot measures snapshot query evaluation scaling (Proposition 3.1:
// PTIME data complexity, monotone).
func E3Snapshot(w io.Writer, sizes []int) error {
	fmt.Fprintln(w, "E3 — snapshot evaluation scaling (Prop 3.1)")
	fmt.Fprintln(w, "tuples\tanswers\teval(us)\tmonotone")
	q := syntax.MustParseQuery(`pair{$x,$y} :- d/r{t{a{$x},b{$z}}}, d/r{t{a{$z},b{$y}}}`)
	var prevAnswers int
	for _, n := range sizes {
		edges := workload.Edges(rand.New(rand.NewSource(seed)), workload.Chain, n)
		root := tree.NewLabel("r")
		for _, e := range edges {
			root.Children = append(root.Children, tree.NewLabel("t",
				tree.NewLabel("a", tree.NewValue(e[0])),
				tree.NewLabel("b", tree.NewValue(e[1]))))
		}
		docs := query.Docs{"d": root}
		start := time.Now()
		ans, err := query.Snapshot(q, docs)
		if err != nil {
			return err
		}
		el := time.Since(start)
		monotone := len(ans) >= prevAnswers
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%v\n", len(edges), len(ans), us(el), monotone)
		if !monotone {
			return fmt.Errorf("E3: answers shrank when the document grew")
		}
		prevAnswers = len(ans)
	}
	return nil
}

// E4TransitiveClosure compares the simple positive system of Example 3.2
// against native datalog (naive and semi-naive) on the same graphs.
func E4TransitiveClosure(w io.Writer, sizes []int) error {
	fmt.Fprintln(w, "E4 — transitive closure: AXML vs datalog (Ex 3.2)")
	fmt.Fprintln(w, "nodes\tpairs\taxml(ms)\tsemi-naive(ms)\tnaive(ms)\tequal")
	for _, n := range sizes {
		edges := workload.Edges(rand.New(rand.NewSource(seed)), workload.Chain, n)
		prog := datalog.TransitiveClosure(edges)

		start := time.Now()
		s := tcSystem(edges)
		res := s.Run(core.RunOptions{MaxSteps: 10_000_000})
		axmlTime := time.Since(start)
		if !res.Terminated {
			return fmt.Errorf("E4: AXML TC did not terminate at n=%d", n)
		}
		axmlRel, err := relationFromTC(s)
		if err != nil {
			return err
		}

		start = time.Now()
		sdb, _, err := prog.SemiNaive()
		if err != nil {
			return err
		}
		semiTime := time.Since(start)

		start = time.Now()
		ndb, _, err := prog.Naive()
		if err != nil {
			return err
		}
		naiveTime := time.Since(start)

		equal := axmlRel.Len() == sdb["tc"].Len() && sdb["tc"].Len() == ndb["tc"].Len()
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%.2f\t%v\n",
			n, sdb["tc"].Len(), ms(axmlTime), ms(semiTime), ms(naiveTime), equal)
		if !equal {
			return fmt.Errorf("E4: fixpoints differ at n=%d (axml=%d, semi=%d, naive=%d)",
				n, axmlRel.Len(), sdb["tc"].Len(), ndb["tc"].Len())
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// relationFromTC reads the pairs out of document d1 of a tcSystem.
func relationFromTC(s *core.System) (*datalog.Relation, error) {
	rel := datalog.NewRelation()
	root := s.Document("d1").Root
	for _, c := range root.Children {
		if c.Kind != tree.Label || c.Name != "t" {
			continue
		}
		var x, y string
		for _, ab := range c.Children {
			if len(ab.Children) != 1 {
				continue
			}
			switch ab.Name {
			case "a":
				x = ab.Children[0].Name
			case "b":
				y = ab.Children[0].Name
			}
		}
		rel.Add(datalog.Tuple{x, y})
	}
	return rel, nil
}

// E5InfiniteGrowth contrasts the paper's two infinite systems: the simple
// one (Example 2.1, regular semantics — finite graph) and the tree-
// variable one (Example 3.3, non-regular).
func E5InfiniteGrowth(w io.Writer, budgets []int) error {
	fmt.Fprintln(w, "E5 — infinite systems (Ex 2.1 vs Ex 3.3)")
	fmt.Fprintln(w, "steps\tex21-nodes\tex21-depth\tex33-nodes\tex33-depth")
	for _, b := range budgets {
		e21 := core.MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
		r1 := e21.Run(core.RunOptions{MaxSteps: b})
		if r1.Terminated {
			return fmt.Errorf("E5: Example 2.1 terminated")
		}
		e33 := core.MustParseSystem("doc d = a{a{b},!g}\nfunc g = a{a{#X}} :- context/a{a{#X}}")
		r2 := e33.Run(core.RunOptions{MaxSteps: b})
		if r2.Terminated {
			return fmt.Errorf("E5: Example 3.3 terminated")
		}
		d1 := e21.Document("d").Root
		d2 := e33.Document("d").Root
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\n", b, d1.Size(), d1.Depth(), d2.Size(), d2.Depth())
	}
	// The simple one has a finite graph representation; Ex 3.3 does not
	// (Build rejects it).
	g, err := regular.Build(core.MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- "), regular.BuildOptions{})
	if err != nil {
		return fmt.Errorf("E5: graph for Example 2.1: %w", err)
	}
	fmt.Fprintf(w, "Ex 2.1 regular graph: %d vertices, cyclic=%v\n", g.VertexCount(), g.HasCycle())
	if !g.HasCycle() || g.VertexCount() > 6 {
		return fmt.Errorf("E5: unexpected graph shape")
	}
	if _, err := regular.Build(core.MustParseSystem(
		"doc d = a{a{b},!g}\nfunc g = a{a{#X}} :- context/a{a{#X}}"), regular.BuildOptions{}); err == nil {
		return fmt.Errorf("E5: non-simple system accepted by Build")
	}
	fmt.Fprintln(w, "Ex 3.3: rejected by the regular-graph construction (non-simple), as required")
	return nil
}
