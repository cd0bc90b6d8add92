// The paper's claims as checked tests. The paper is pure theory, so its
// evaluation is a set of theorems, worked examples and complexity
// claims; each TestClaim… test below reproduces one of them at the sizes
// EXPERIMENTS.md publishes, asserts its qualitative shape, and renders
// its table. The committed table sits between `<!-- claim:ID -->` and
// `<!-- /claim -->` in EXPERIMENTS.md: a plain run fails when any count
// or verdict cell differs from it, and
//
//	go test -run TestClaim -update .
//
// rewrites the tables from this run. Timing columns (headers ending in
// "(ms)" or "(µs)") are measurements: -update rewrites them and nothing
// compares them.
package axml_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/datalog"
	"axml/internal/lazy"
	"axml/internal/pathexpr"
	"axml/internal/peer"
	"axml/internal/query"
	"axml/internal/regular"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
	"axml/internal/turing"
	"axml/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the claim tables in EXPERIMENTS.md from this run")

const claimSeed = 20040614 // PODS 2004, June 14

// claimTable is one experiment's result table.
type claimTable struct {
	header []string
	rows   [][]string
}

func newClaimTable(header ...string) *claimTable { return &claimTable{header: header} }

// timing reports whether column i holds a measurement rather than a
// count or a verdict.
func (c *claimTable) timing(i int) bool {
	return strings.HasSuffix(c.header[i], "(ms)") || strings.HasSuffix(c.header[i], "(µs)")
}

// add appends a row. A time.Duration cell is printed in its column's
// unit; every other cell with fmt.Sprint.
func (c *claimTable) add(cells ...any) {
	row := make([]string, len(cells))
	for i, v := range cells {
		d, ok := v.(time.Duration)
		switch {
		case !ok:
			row[i] = fmt.Sprint(v)
		case strings.HasSuffix(c.header[i], "(µs)"):
			row[i] = fmt.Sprintf("%.0f", float64(d)/float64(time.Microsecond))
		default:
			row[i] = fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
		}
	}
	c.rows = append(c.rows, row)
}

func (c *claimTable) markdown() string {
	var b strings.Builder
	line := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	line(c.header)
	b.WriteString(strings.Repeat("|---", len(c.header)) + "|\n")
	for _, r := range c.rows {
		line(r)
	}
	return b.String()
}

// withoutTimings blanks the timing cells of a rendered table.
func (c *claimTable) withoutTimings(md string) string {
	lines := strings.Split(md, "\n")
	for i, l := range lines {
		cells := strings.Split(l, "|")
		for j := range c.header {
			if c.timing(j) && j+1 < len(cells) {
				cells[j+1] = " ~ "
			}
		}
		lines[i] = strings.Join(cells, "|")
	}
	return strings.Join(lines, "\n")
}

// checkClaim compares the table with the one committed under claim id in
// EXPERIMENTS.md, or writes it there under -update.
func checkClaim(t *testing.T, id string, c *claimTable) {
	t.Helper()
	const path = "EXPERIMENTS.md"
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src)
	open := "<!-- claim:" + id + " -->\n"
	i := strings.Index(doc, open)
	if i < 0 {
		t.Fatalf("%s has no %q marker", path, strings.TrimSpace(open))
	}
	i += len(open)
	n := strings.Index(doc[i:], "<!-- /claim -->")
	if n < 0 {
		t.Fatalf("%s: claim %s is not closed", path, id)
	}
	committed, got := doc[i:i+n], c.markdown()
	if *update {
		if err := os.WriteFile(path, []byte(doc[:i]+got+doc[i+n:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if c.withoutTimings(committed) != c.withoutTimings(got) {
		t.Errorf("claim %s: counts or verdicts differ from %s (rerun with -update if the change is intended)\ncommitted:\n%smeasured:\n%s",
			id, path, committed, got)
	}
}

const tcSystemSrc = `
doc  d0 = r{%s}
doc  d1 = r{!g,!f}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`

// tcSystem is Example 3.2 over the given edges: d1 accumulates their
// transitive closure.
func tcSystem(edges [][2]string) *core.System {
	body := make([]string, len(edges))
	for i, e := range edges {
		body[i] = fmt.Sprintf(`t{a{"%s"},b{"%s"}}`, e[0], e[1])
	}
	return core.MustParseSystem(fmt.Sprintf(tcSystemSrc, strings.Join(body, ",")))
}

func chainEdges(n int) [][2]string {
	return workload.Edges(rand.New(rand.NewSource(claimSeed)), workload.Chain, n)
}

// relationFromTC reads the pairs out of document d1 of a tcSystem.
func relationFromTC(s *core.System) *datalog.Relation {
	rel := datalog.NewRelation()
	for _, c := range s.Document("d1").Root.Children {
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
	return rel
}

func shuffle(rng *rand.Rand, n *tree.Node) *tree.Node {
	c := &tree.Node{Kind: n.Kind, Name: n.Name}
	for _, i := range rng.Perm(len(n.Children)) {
		c.Children = append(c.Children, shuffle(rng, n.Children[i]))
	}
	return c
}

// TestClaimProp21UniqueReduction is E1, Proposition 2.1: subsumption and
// reduction are PTIME, and the reduced version is unique — reducing a
// random sibling permutation yields the identical canonical form.
func TestClaimProp21UniqueReduction(t *testing.T) {
	tab := newClaimTable("nodes", "reduced", "subsume (µs)", "reduce (µs)", "unique")
	for _, n := range []int{100, 400, 1600, 6400} {
		t1 := workload.RandomTree(rand.New(rand.NewSource(claimSeed)), workload.TreeConfig{Nodes: n, Redundancy: 0.5})
		t2 := t1.Copy()
		start := time.Now()
		subsume.Subsumed(t1, t2)
		subTime := time.Since(start)
		start = time.Now()
		r1 := subsume.Reduce(t1)
		redTime := time.Since(start)
		r2 := subsume.Reduce(shuffle(rand.New(rand.NewSource(claimSeed+1)), t1))
		unique := r1.CanonicalString() == r2.CanonicalString()
		tab.add(t1.Size(), r1.Size(), subTime, redTime, unique)
		if !unique || r1.Size() > t1.Size() {
			t.Errorf("n=%d: unique=%v, reduced %d of %d nodes", n, unique, r1.Size(), t1.Size())
		}
	}
	checkClaim(t, "E1", tab)
}

// TestClaimThm21Confluence is E2, Theorem 2.1: fair rewritings of a
// terminating system converge to one limit. It checks a sample of the
// fair schedules, not all of them: 8 schedules (round-robin, reverse and
// 6 seeded random ones) of one 6-chain transitive-closure system at
// Parallelism 1, where the sweep is the order a Scheduler picks.
func TestClaimThm21Confluence(t *testing.T) {
	tab := newClaimTable("scheduler", "steps", "attempts", "sweeps", "same limit")
	scheds := []core.Scheduler{core.RoundRobin{}, core.Reverse{}}
	names := []string{"round-robin", "reverse"}
	for i := 0; i < 6; i++ {
		scheds = append(scheds, core.NewRandom(int64(i)))
		names = append(names, fmt.Sprintf("random-%d", i))
	}
	var limit string
	for i, sc := range scheds {
		s := tcSystem(chainEdges(6))
		res := s.Run(core.RunOptions{Scheduler: sc, Parallelism: 1})
		if i == 0 {
			limit = s.CanonicalString()
		}
		same := s.CanonicalString() == limit
		tab.add(names[i], res.Steps, res.Attempts, res.Sweeps, same)
		if !res.Terminated || !same {
			t.Errorf("%s: terminated=%v, same limit=%v", names[i], res.Terminated, same)
		}
	}
	checkClaim(t, "E2", tab)
}

// TestClaimProp31SnapshotMonotone is E3, Proposition 3.1: snapshot
// evaluation is monotone and PTIME in the data.
func TestClaimProp31SnapshotMonotone(t *testing.T) {
	tab := newClaimTable("tuples", "answers", "eval (µs)", "monotone")
	q := syntax.MustParseQuery(`pair{$x,$y} :- d/r{t{a{$x},b{$z}}}, d/r{t{a{$z},b{$y}}}`)
	prev := 0
	for _, n := range []int{8, 32, 128, 512} {
		edges := chainEdges(n)
		root := tree.NewLabel("r")
		for _, e := range edges {
			root.Children = append(root.Children, tree.NewLabel("t",
				tree.NewLabel("a", tree.NewValue(e[0])),
				tree.NewLabel("b", tree.NewValue(e[1]))))
		}
		start := time.Now()
		ans, err := query.Snapshot(q, query.Docs{"d": root})
		el := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		monotone := len(ans) >= prev
		tab.add(len(edges), len(ans), el, monotone)
		if !monotone {
			t.Errorf("%d tuples: answers shrank from %d to %d", len(edges), prev, len(ans))
		}
		prev = len(ans)
	}
	checkClaim(t, "E3", tab)
}

// TestClaimEx32TransitiveClosure is E4, Example 3.2: the simple positive
// transitive-closure system computes exactly what naive and semi-naive
// datalog compute, on chains.
func TestClaimEx32TransitiveClosure(t *testing.T) {
	sizes := []int{6, 10, 14}
	t.Run("TCSystemHelper", func(t *testing.T) {
		for _, n := range sizes {
			s := tcSystem(chainEdges(n))
			if !s.IsSimple() || relationFromTC(s).Len() != 0 {
				t.Fatalf("n=%d: the TC system must be simple and start with no pairs", n)
			}
		}
	})
	tab := newClaimTable("nodes", "pairs", "axml (ms)", "semi-naive (ms)", "naive (ms)", "equal")
	for _, n := range sizes {
		edges := chainEdges(n)
		start := time.Now()
		s := tcSystem(edges)
		res := s.Run(core.RunOptions{MaxSteps: 10_000_000})
		axmlTime := time.Since(start)
		rel := relationFromTC(s)

		prog := datalog.TransitiveClosure(edges)
		start = time.Now()
		sdb, _, err := prog.SemiNaive()
		semiTime := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		start = time.Now()
		ndb, _, err := prog.Naive()
		naiveTime := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}

		semi, naive := sdb["tc"], ndb["tc"]
		equal := rel.Len() == semi.Len() && semi.Len() == naive.Len()
		for _, tp := range semi.Tuples() {
			equal = equal && rel.Has(tp) && naive.Has(tp)
		}
		tab.add(n, semi.Len(), axmlTime, semiTime, naiveTime, equal)
		if !res.Terminated || !equal {
			t.Errorf("n=%d: terminated=%v, fixpoints axml=%d semi=%d naive=%d", n, res.Terminated, rel.Len(), semi.Len(), naive.Len())
		}
	}
	checkClaim(t, "E4", tab)
}

const (
	ex21Src = "doc d = a{!f}\nfunc f = a{!f} :- "
	ex33Src = "doc d = a{a{b},!g}\nfunc g = a{a{#X}} :- context/a{a{#X}}"
)

// TestClaimEx21Ex33InfiniteGrowth is E5, Examples 2.1 and 3.3: both
// systems are infinite, but only the simple one (Ex 2.1) has a finite
// graph representation (Lemma 3.2); the tree-variable one (Ex 3.3) grows
// faster and is rejected by the construction.
func TestClaimEx21Ex33InfiniteGrowth(t *testing.T) {
	tab := newClaimTable("steps", "Ex 2.1 nodes", "Ex 2.1 depth", "Ex 3.3 nodes", "Ex 3.3 depth")
	for _, b := range []int{4, 16, 64} {
		e21, e33 := core.MustParseSystem(ex21Src), core.MustParseSystem(ex33Src)
		r1, r2 := e21.Run(core.RunOptions{MaxSteps: b}), e33.Run(core.RunOptions{MaxSteps: b})
		d1, d2 := e21.Document("d").Root, e33.Document("d").Root
		tab.add(b, d1.Size(), d1.Depth(), d2.Size(), d2.Depth())
		if r1.Terminated || r2.Terminated || d2.Size() <= d1.Size() {
			t.Errorf("budget %d: terminated %v/%v, nodes %d/%d: both must grow, Ex 3.3 faster",
				b, r1.Terminated, r2.Terminated, d1.Size(), d2.Size())
		}
	}
	checkClaim(t, "E5", tab)

	// EXPERIMENTS.md states the graph: 4 vertices, cyclic.
	g, err := regular.Build(core.MustParseSystem(ex21Src), regular.BuildOptions{})
	if err != nil || !g.HasCycle() || g.VertexCount() != 4 {
		t.Errorf("Ex 2.1 graph: err=%v; want 4 vertices on a cycle", err)
	}
	if _, err := regular.Build(core.MustParseSystem(ex33Src), regular.BuildOptions{}); err == nil {
		t.Error("Ex 3.3 (not simple) accepted by the graph construction")
	}
}

// TestClaimThm33Termination is E6, Lemma 3.2 and Theorem 3.3:
// termination of simple positive systems is decidable, by acyclicity of
// the finite graph representation.
func TestClaimThm33Termination(t *testing.T) {
	tab := newClaimTable("system", "verdict", "expected", "graph vertices", "invocations", "decide (µs)")
	for _, c := range []struct {
		name string
		s    *core.System
		want bool
	}{
		{"tc-chain6", tcSystem(chainEdges(6)), true},
		{"ex2.1-loop", core.MustParseSystem(ex21Src), false},
		{"const", core.MustParseSystem("doc d = a{!f}\nfunc f = b{c} :- "), true},
		{"mutual-loop", core.MustParseSystem("doc d = top{!f}\nfunc f = a{!g} :- \nfunc g = b{!f} :- "), false},
		{"guarded", core.MustParseSystem("doc d0 = r{v{1},v{2}}\ndoc d = top{!f}\nfunc f = a{$x,!g} :- d0/r{v{$x}}\nfunc g = b{$x} :- d0/r{v{$x}}"), true},
		{"context-fix", core.MustParseSystem("doc d = a{b,!f}\nfunc f = b :- context/a{b}"), true},
	} {
		start := time.Now()
		verdict, g, err := regular.Terminates(c.s, regular.BuildOptions{})
		el := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tab.add(c.name, verdict, c.want, g.VertexCount(), g.Invocations, el)
		if verdict != c.want {
			t.Errorf("%s: decided %v, want %v", c.name, verdict, c.want)
		}
	}
	checkClaim(t, "E6", tab)
}

// TestClaimSec4Lazy is E7, Section 4: on jazz portals with irrelevant
// recursive feeds, lazy evaluation answers exactly and proves weak
// stability with fewer invocations than naive evaluation, which cannot
// terminate.
func TestClaimSec4Lazy(t *testing.T) {
	tab := newClaimTable("cds", "answers", "lazy invocations", "lazy stable", "naive steps (budget)", "naive done", "lazy (ms)")
	for _, cds := range []int{8, 32, 64} {
		cfg := workload.JazzConfig{CDs: cds, MaterializedRatio: 0.3, IrrelevantBranches: 3}
		start := time.Now()
		lres, err := lazy.Eval(context.Background(), workload.JazzSystem(rand.New(rand.NewSource(claimSeed)), cfg), workload.RatingQuery(), core.RunOptions{MaxSteps: 100000})
		el := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		nres := workload.JazzSystem(rand.New(rand.NewSource(claimSeed)), cfg).Run(core.RunOptions{MaxSteps: 10 * cds})
		tab.add(cds, len(lres.Answer), lres.Invocations, lres.Stable, nres.Steps, nres.Terminated, el)
		if !lres.Stable || len(lres.Answer) != cds || nres.Terminated || lres.Invocations >= nres.Steps {
			t.Errorf("cds=%d: lazy stable=%v answered %d in %d invocations; naive terminated=%v after %d steps",
				cds, lres.Stable, len(lres.Answer), lres.Invocations, nres.Terminated, nres.Steps)
		}
	}
	checkClaim(t, "E7", tab)
}

// TestClaimProp51PathTranslation is E8, Proposition 5.1: the
// ψ-translated plain system and query compute what direct positive+reg
// evaluation computes, and simplicity is preserved.
func TestClaimProp51PathTranslation(t *testing.T) {
	tab := newClaimTable("case", "answers", "direct (µs)", "translated (ms)", "services added", "simple preserved", "equal")
	for _, c := range []struct{ name, sys, query string }{
		{"nested-sections",
			"doc src = store{item{name{\"alpha\"}},item{name{\"beta\"}}}\ndoc lib = lib{section{sub},!fill}\nfunc fill = section{cd{title{$n}}} :- src/store{item{name{$n}}}",
			`out{$t} :- lib/lib{<(section|sub)*.cd.title>{$t}}`},
		{"optional-hop", "doc d = a{title{\"h\"},b{title{\"l\"}}}", `out{$t} :- d/a{<b?.title>{$t}}`},
		{"wildcard", "doc d = r{x{y{leaf{\"1\"}}},z{leaf{\"2\"}}}", `out{$v} :- d/r{<_*.leaf>{$v}}`},
	} {
		s := core.MustParseSystem(c.sys)
		rq := pathexpr.MustParseRQuery(c.query)
		start := time.Now()
		direct, exact, err := pathexpr.EvalFull(s, rq, core.RunOptions{})
		directTime := time.Since(start)
		if err != nil || !exact {
			t.Fatalf("%s: direct run exact=%v err=%v", c.name, exact, err)
		}
		trans, err := pathexpr.Translate(s, rq)
		if err != nil {
			t.Fatal(err)
		}
		start = time.Now()
		res, err := trans.System.EvalQuery(trans.Query, core.RunOptions{MaxSteps: 1_000_000})
		transTime := time.Since(start)
		if err != nil || !res.Exact {
			t.Fatalf("%s: translated run exact=%v err=%v", c.name, res.Exact, err)
		}
		equal := direct.CanonicalString() == res.Answer.CanonicalString()
		simple := trans.System.IsSimple() && trans.Query.IsSimple()
		tab.add(c.name, len(direct), directTime, transTime, len(trans.TokenServices), simple, equal)
		if !equal || !simple {
			t.Errorf("%s: equal=%v simple=%v", c.name, equal, simple)
		}
	}
	checkClaim(t, "E8", tab)
}

var superscript = strings.NewReplacer("0", "⁰", "1", "¹", "2", "²", "3", "³", "4", "⁴", "5", "⁵", "6", "⁶", "7", "⁷", "8", "⁸", "9", "⁹")

// TestClaimLemma31Turing is E9, Lemma 3.1: the positive system compiled
// from a Turing machine derives its accepting configuration and the
// interpreter's output tape.
func TestClaimLemma31Turing(t *testing.T) {
	tab := newClaimTable("machine", "input", "accept", "configs", "steps", "sim (ms)", "matches interpreter")
	for _, n := range []int{1, 3, 5} {
		input := strings.Split(strings.Repeat("1", n), "")
		for _, m := range []*turing.Machine{turing.UnaryIncrement(), turing.ParityMarker()} {
			wantOut, wantOK := m.Run(input, 100000)
			start := time.Now()
			res, err := turing.Simulate(m, input, 200000)
			el := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			match := res.Accepted == wantOK && turing.FormatTape(res.Output) == turing.FormatTape(wantOut)
			tab.add(m.Name, "1"+superscript.Replace(fmt.Sprint(n)), res.Accepted, res.Configs, res.Run.Steps, el, match)
			if !match {
				t.Errorf("%s on 1^%d diverged from the interpreter", m.Name, n)
			}
		}
	}
	checkClaim(t, "E9", tab)
}

// TestClaimSec4FireOnce is E10, Section 4: the fire-once semantics loses
// the recursive closure but coincides with the positive semantics on an
// acyclic system.
func TestClaimSec4FireOnce(t *testing.T) {
	tab := newClaimTable("system", "positive pairs", "fire-once pairs", "coincide")
	fair := tcSystem(chainEdges(6))
	fair.Run(core.RunOptions{})
	once := tcSystem(chainEdges(6))
	if r := once.RunFireOnce(); r.Err != nil {
		t.Fatal(r.Err)
	}
	fairN, onceN := relationFromTC(fair).Len(), relationFromTC(once).Len()
	tab.add("recursive TC (6-chain)", fairN, onceN, fairN == onceN)
	if onceN >= fairN {
		t.Errorf("fire-once derived %d of the closure's %d pairs", onceN, fairN)
	}

	const acyclic = `
doc d0 = r{t{a{1},b{2}},t{a{2},b{3}}}
doc d1 = r{!g}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
`
	a1, a2 := core.MustParseSystem(acyclic), core.MustParseSystem(acyclic)
	a1.Run(core.RunOptions{})
	if r := a2.RunFireOnce(); r.Err != nil {
		t.Fatal(r.Err)
	}
	coincide := a1.CanonicalString() == a2.CanonicalString()
	tab.add("acyclic copy system", "—", "—", coincide)
	if !coincide {
		t.Error("fire-once diverged from the positive semantics on an acyclic system")
	}
	checkClaim(t, "E10", tab)
}

// TestClaimSec6Distributed is E11, Sections 1 and 6: n hop peers each
// own one chain edge, a collector assembles the reachability set from
// node 0 over HTTP, and the coordinator detects global termination. The
// distributed fixpoint must equal the single-site answer.
func TestClaimSec6Distributed(t *testing.T) {
	tab := newClaimTable("peers", "rounds", "terminated", "paths found", "single-site answer", "equal", "total (ms)")
	for _, n := range []int{2, 4, 6} {
		start := time.Now()
		paths, rounds, terminated := distributedChain(t, n)
		el := time.Since(start)
		single := n + 1 // paths from n0 over the chain n0..n(n+1)
		tab.add(n, rounds, terminated, paths, single, paths == single, el)
		if !terminated || paths != single {
			t.Errorf("peers=%d: terminated=%v, %d paths, want %d", n, terminated, paths, single)
		}
	}
	checkClaim(t, "E11", tab)
}

// distributedChain serves n hop peers (peer i owns edge i+1 -> i+2) and a
// collector that seeds path 0->1, runs the coordinator to its fixpoint,
// and returns the paths from 0 found, the rounds and termination.
func distributedChain(t *testing.T, n int) (paths, rounds int, terminated bool) {
	t.Helper()
	serve := func(p *peer.Peer) string {
		srv := httptest.NewServer(p.Handler())
		t.Cleanup(srv.Close)
		return srv.URL
	}
	var urls []string
	collectorSys := core.MustParseSystem(`doc paths = r{t{a{"n0"},b{"n1"}}}`)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`
doc edges = r{t{a{"n%d"},b{"n%d"}}}
func Hop%d = t{a{$x},b{$y}} :- input/input{t{a{$x},b{$z}}}, edges/r{t{a{$z},b{$y}}}
`, i+1, i+2, i)
		p, _, err := peer.Open(fmt.Sprintf("hop%d", i), core.MustParseSystem(src))
		if err != nil {
			t.Fatal(err)
		}
		url := serve(p)
		urls = append(urls, url)
		svc := fmt.Sprintf("Step%d", i)
		remote := &peer.RemoteService{Name: fmt.Sprintf("Hop%d", i), URL: url}
		if err := collectorSys.AddService(&forwardPathsService{name: svc, inner: remote}); err != nil {
			t.Fatal(err)
		}
		root := collectorSys.Document("paths").Root
		root.Children = append(root.Children, tree.NewFunc(svc))
	}
	collector, _, err := peer.Open("collector", collectorSys)
	if err != nil {
		t.Fatal(err)
	}
	urls = append(urls, serve(collector))

	res, err := (&peer.Coordinator{URLs: urls}).RunToFixpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	collector.System(func(s *core.System) {
		for _, c := range s.Document("paths").Root.Children {
			if c.Kind == tree.Label && c.Name == "t" {
				paths++
			}
		}
	})
	return paths, res.Rounds, res.Terminated
}

// forwardPathsService forwards the caller's context tuples as the remote
// input (the collector's frontier travels to the hop peer).
type forwardPathsService struct {
	name  string
	inner core.Service
}

func (s *forwardPathsService) ServiceName() string { return s.name }

func (s *forwardPathsService) Invoke(ctx context.Context, b core.Binding) (tree.Forest, error) {
	input := tree.NewLabel(tree.Input)
	if b.Context != nil {
		for _, c := range b.Context.Children {
			if c.Kind != tree.Func {
				input.Children = append(input.Children, c.Copy())
			}
		}
	}
	return s.inner.Invoke(ctx, core.Binding{Input: input, Context: b.Context, Docs: b.Docs})
}

// TestClaimLemma32Minimization is the minimization ablation: the
// bisimulation quotient of the Lemma 3.2 graph never grows it and keeps
// its termination verdict (cycle or not).
func TestClaimLemma32Minimization(t *testing.T) {
	tab := newClaimTable("system", "vertices", "minimized", "cycle preserved")
	for _, c := range []struct {
		name string
		s    *core.System
	}{
		{"ex2.1-loop", core.MustParseSystem(ex21Src)},
		{"duplicated subtrees", core.MustParseSystem("doc d = r{x{a{\"1\"}},y{a{\"1\"}},z{a{\"1\"}}}")},
		{"tc-chain6", tcSystem(chainEdges(6))},
	} {
		g, err := regular.Build(c.s, regular.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		minimized := g.Minimize()
		preserved := g.HasCycle() == minimized.HasCycle()
		tab.add(c.name, g.VertexCount(), minimized.VertexCount(), preserved)
		if !preserved || minimized.VertexCount() > g.VertexCount() {
			t.Errorf("%s: %d -> %d vertices, cycle preserved=%v", c.name, g.VertexCount(), minimized.VertexCount(), preserved)
		}
	}
	checkClaim(t, "minimization", tab)
}
