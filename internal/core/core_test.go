package core

import (
	"context"
	"strings"
	"testing"

	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// tcSystem is Example 3.2: a simple positive system whose fair rewritings
// converge to the transitive closure of the relation encoded in d0.
// Tuples are encoded positionally as t{a{x}, b{y}} (the paper writes
// t{x,y}; unordered children force named positions).
const tcSystem = `
doc  d0 = r{t{a{1},b{2}},t{a{2},b{3}},t{a{3},b{4}}}
doc  d1 = r{!g,!f}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`

func wantTCPairs() map[string]bool {
	return map[string]bool{
		"1-2": true, "2-3": true, "3-4": true,
		"1-3": true, "2-4": true, "1-4": true,
	}
}

func extractPairs(t *testing.T, root *tree.Node) map[string]bool {
	t.Helper()
	pairs := map[string]bool{}
	for _, c := range root.Children {
		if c.Kind != tree.Label || c.Name != "t" {
			continue
		}
		var x, y string
		for _, ab := range c.Children {
			if len(ab.Children) != 1 {
				t.Fatalf("malformed tuple %s", c)
			}
			switch ab.Name {
			case "a":
				x = ab.Children[0].Name
			case "b":
				y = ab.Children[0].Name
			}
		}
		pairs[x+"-"+y] = true
	}
	return pairs
}

func TestExample32TransitiveClosure(t *testing.T) {
	s := MustParseSystem(tcSystem)
	res := s.Run(RunOptions{})
	if !res.Terminated {
		t.Fatalf("TC system did not terminate: %+v", res)
	}
	got := extractPairs(t, s.Document("d1").Root)
	want := wantTCPairs()
	for p := range want {
		if !got[p] {
			t.Errorf("missing pair %s", p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("spurious pair %s", p)
		}
	}
}

// Theorem 2.1 (confluence): every fair rewriting of a terminating system
// ends in the same final system.
func TestTheorem21Confluence(t *testing.T) {
	base := MustParseSystem(tcSystem)
	var canon string
	schedulers := []Scheduler{RoundRobin{}, Reverse{}, NewRandom(1), NewRandom(2), NewRandom(99), NewRandom(12345)}
	for i, sched := range schedulers {
		s := base.Copy()
		res := s.Run(RunOptions{Scheduler: sched})
		if !res.Terminated {
			t.Fatalf("scheduler %d did not terminate", i)
		}
		c := s.CanonicalString()
		if i == 0 {
			canon = c
		} else if c != canon {
			t.Fatalf("scheduler %d produced a different limit:\n%s\nvs\n%s", i, c, canon)
		}
	}
}

// Example 2.1: d/a{!f} with f constantly returning a{!f} never terminates
// and grows by one a{...} layer per productive invocation.
func TestExample21InfiniteSystem(t *testing.T) {
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{!f}`))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(ConstService("f", tree.Forest{syntax.MustParseDocument(`a{!f}`)})); err != nil {
		t.Fatal(err)
	}
	res := s.Run(RunOptions{MaxSteps: 5, Parallelism: 1}) // exact shape after a budget needs a fixed order
	if res.Terminated {
		t.Fatal("infinite system reported terminated")
	}
	if res.Steps != 5 {
		t.Fatalf("steps = %d", res.Steps)
	}
	// After k productive steps the document is a nest of depth k+1:
	// d/a{a{...{a{!f},!f}...},!f}.
	root := s.Document("d").Root
	if root.Depth() != 7 { // a + 5 nested a + innermost !f
		t.Fatalf("depth = %d, want 7\n%s", root.Depth(), root.Indent())
	}
	// Same simple query as the paper: f defined by "a{!f} :- ." behaves
	// identically when expressed as a positive service.
	s2 := MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
	res2 := s2.Run(RunOptions{MaxSteps: 5, Parallelism: 1})
	if res2.Terminated {
		t.Fatal("positive variant reported terminated")
	}
	if s2.Document("d").Root.CanonicalString() != root.CanonicalString() {
		t.Fatalf("positive variant diverged:\n%s\nvs\n%s",
			s2.Document("d").Root.CanonicalString(), root.CanonicalString())
	}
}

// Example 3.3: d'/a{a{b},!g} with g = a{a{#X}} :- context/a{a{#X}} grows a
// new, deeper subtree per invocation (non-regular infinite semantics).
func TestExample33TreeVariableGrowth(t *testing.T) {
	s := MustParseSystem("doc d = a{a{b},!g}\nfunc g = a{a{#X}} :- context/a{a{#X}}")
	res := s.Run(RunOptions{MaxSteps: 3, Parallelism: 1}) // exact shape after a budget needs a fixed order
	if res.Terminated {
		t.Fatal("Example 3.3 system terminated")
	}
	got := s.Document("d").Root.CanonicalString()
	want := syntax.MustParseDocument(`a{a{b},a{a{b}},a{a{a{b}}},a{a{a{a{b}}}},!g}`).CanonicalString()
	if got != want {
		t.Fatalf("state after 3 steps:\n%s\nwant\n%s", got, want)
	}
}

// Section 5 nesting example: a simple system nests a binary relation on
// its a-column using context.
func TestSection5Nesting(t *testing.T) {
	s := MustParseSystem(`
doc d  = r{t{a{1},b{2}},t{a{1},b{3}},t{a{2},b{2}}}
doc d2 = r{!f}
func f = t{a{$x},!g} :- d/r{t{a{$x}}}
func g = b{$y} :- context/t{a{$x}}, d/r{t{a{$x},b{$y}}}
`)
	res := s.Run(RunOptions{})
	if !res.Terminated {
		t.Fatalf("nesting system did not terminate: %+v", res)
	}
	root := s.Document("d2").Root
	// Expect r{t{a1,!g,b2,b3}, t{a2,!g,b2}} modulo the residual calls.
	var got []string
	for _, c := range root.Children {
		if c.Kind == tree.Func {
			continue
		}
		var a string
		bs := []string{}
		for _, ch := range c.Children {
			switch {
			case ch.Name == "a":
				a = ch.Children[0].Name
			case ch.Name == "b":
				bs = append(bs, ch.Children[0].Name)
			}
		}
		got = append(got, a+":"+strings.Join(bs, "+"))
	}
	joined := strings.Join(got, " ")
	if !strings.Contains(joined, "1:2+3") && !strings.Contains(joined, "1:3+2") {
		t.Errorf("nesting for a=1 wrong: %v\n%s", got, root.Indent())
	}
	if !strings.Contains(joined, "2:2") {
		t.Errorf("nesting for a=2 wrong: %v", got)
	}
}

func TestInvokeInputBinding(t *testing.T) {
	// GetRating receives its parameter via input (jazz example, Sec 2.2).
	s := NewSystem()
	doc := syntax.MustParseDocument(`directory{cd{title{"Body and Soul"},!GetRating{"Body and Soul"}}}`)
	if err := s.AddDocument(tree.NewDocument("d", doc)); err != nil {
		t.Fatal(err)
	}
	ratings := map[string]string{"Body and Soul": "****"}
	svc := &GoService{Name: "GetRating", Fn: func(_ context.Context, b Binding) (tree.Forest, error) {
		if b.Input.Name != tree.Input {
			t.Errorf("input root label = %q", b.Input.Name)
		}
		if b.Context == nil || b.Context.Name != "cd" {
			t.Errorf("context root = %v", b.Context)
		}
		var out tree.Forest
		for _, p := range b.Input.Children {
			if r, ok := ratings[p.Name]; ok {
				out = append(out, tree.NewLabel("rating", tree.NewValue(r)))
			}
		}
		return out, nil
	}}
	if err := s.AddService(svc); err != nil {
		t.Fatal(err)
	}
	res := s.Run(RunOptions{})
	if !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	want := syntax.MustParseDocument(`directory{cd{title{"Body and Soul"},!GetRating{"Body and Soul"},rating{"****"}}}`)
	if !tree.Isomorphic(s.Document("d").Root, want) {
		t.Fatalf("got %s", s.Document("d").Root.CanonicalString())
	}
}

func TestInvokeNoChangeOnRepeat(t *testing.T) {
	s := MustParseSystem(tcSystem)
	s.Run(RunOptions{})
	// All calls exhausted: invoking any one of them again changes
	// nothing. A copy has no committed gate, so each call is evaluated.
	for i, c := range s.Calls() {
		cp := s.Copy()
		node := cp.Calls()[i].Node
		res := cp.Run(RunOptions{MaxSweeps: 1, Relevant: func(d Call) bool { return d.Node == node }})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Attempts != 1 || res.Steps != 0 {
			t.Fatalf("call %s on a terminated system: %+v", c.Node.Name, res)
		}
	}
}

func TestInvokeErrors(t *testing.T) {
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{!f}`))); err != nil {
		t.Fatal(err)
	}
	if res := s.Run(RunOptions{Parallelism: 1}); res.Err == nil || res.Failures != 1 {
		t.Fatalf("undefined service accepted: %+v", res)
	}
}

func TestSystemValidation(t *testing.T) {
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("input", tree.NewLabel("a"))); err == nil {
		t.Fatal("reserved name accepted")
	}
	if err := s.AddDocument(tree.NewDocument("d", tree.NewFunc("f"))); err == nil {
		t.Fatal("function root accepted")
	}
	if err := s.AddDocument(tree.NewDocument("d", tree.NewLabel("a"))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument(tree.NewDocument("d", tree.NewLabel("b"))); err == nil {
		t.Fatal("duplicate document accepted")
	}
	if err := s.AddService(ConstService("f", nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(ConstService("f", nil)); err == nil {
		t.Fatal("duplicate service accepted")
	}
	// Undefined service referenced from a document.
	bad := NewSystem()
	if err := bad.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{!nope}`))); err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("undefined call accepted by Validate")
	}
	// A query reading an undefined document or mentioning an undefined
	// service is refused, behind a middleware layer as plainly.
	for _, src := range []string{`out{$x} :- nowhere/r{$x}`, `out{!nope} :- `} {
		for _, wrap := range []bool{false, true} {
			q := syntax.MustParseQuery(src)
			q.Name = "q"
			var svc Service = &QueryService{Query: q}
			if wrap {
				svc = &Retry{Service: svc}
			}
			s := NewSystem()
			if err := s.AddService(svc); err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err == nil {
				t.Fatalf("%s (wrapped %v) accepted by Validate", src, wrap)
			}
		}
	}
}

func TestAddDocumentReduces(t *testing.T) {
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{b{c,c},b{c,d,d}}`))); err != nil {
		t.Fatal(err)
	}
	if !tree.Isomorphic(s.Document("d").Root, syntax.MustParseDocument(`a{b{c,d}}`)) {
		t.Fatalf("document not reduced on add: %s", s.Document("d").Root)
	}
}

func TestCopyIsolation(t *testing.T) {
	s := MustParseSystem(tcSystem)
	c := s.Copy()
	c.Run(RunOptions{})
	if s.Document("d1").Root.Size() != MustParseSystem(tcSystem).Document("d1").Root.Size() {
		t.Fatal("running a copy mutated the original")
	}
	if s.CanonicalString() == c.CanonicalString() {
		t.Fatal("copy did not evolve independently")
	}
}

func TestIsPositiveIsSimple(t *testing.T) {
	s := MustParseSystem(tcSystem)
	if !s.IsPositive() || !s.IsSimple() {
		t.Fatal("TC system is simple positive")
	}
	s2 := MustParseSystem("doc d = a{a{b},!g}\nfunc g = a{a{#X}} :- context/a{a{#X}}")
	if !s2.IsPositive() || s2.IsSimple() {
		t.Fatal("Example 3.3 is positive but not simple")
	}
	s3 := NewSystem()
	if err := s3.AddService(ConstService("f", nil)); err != nil {
		t.Fatal(err)
	}
	if s3.IsPositive() {
		t.Fatal("black-box system reported positive")
	}
}

func TestDependencyGraphAndAcyclicity(t *testing.T) {
	s := MustParseSystem(tcSystem)
	g, err := s.DependencyGraph()
	if err != nil {
		t.Fatal(err)
	}
	// d1 -> f, d1 -> g; f -> d1 (cycle d1 <-> f); g -> d0.
	cyc, witness := g.HasCycle()
	if !cyc {
		t.Fatal("TC system should be cyclic (recursive f)")
	}
	if len(witness) < 2 {
		t.Fatalf("witness = %v", witness)
	}
	ok, err := s.IsAcyclic()
	if err != nil || ok {
		t.Fatalf("IsAcyclic = %v, %v", ok, err)
	}

	acyclic := MustParseSystem(`
doc d0 = r{t{a{1},b{2}}}
doc d1 = r{!g}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
`)
	ok, err = acyclic.IsAcyclic()
	if err != nil || !ok {
		t.Fatalf("acyclic system: %v, %v", ok, err)
	}
	ga, _ := acyclic.DependencyGraph()
	order, err := ga.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, v := range order {
		pos[v] = i
	}
	// d1 depends on g which depends on d0: dependencies first.
	if !(pos["d0"] < pos["g"] && pos["g"] < pos["d1"]) {
		t.Fatalf("topo order %v", order)
	}

	// Black-box systems have no dependency graph.
	bb := NewSystem()
	if err := bb.AddService(ConstService("f", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := bb.DependencyGraph(); err == nil {
		t.Fatal("black-box dependency graph built")
	}
}

func TestAcyclicSystemsTerminate(t *testing.T) {
	s := MustParseSystem(`
doc base = r{v{1},v{2}}
doc mid  = m{!copy}
doc top  = t{!wrap}
func copy = x{$v} :- base/r{v{$v}}
func wrap = y{$v} :- mid/m{x{$v}}
`)
	ok, err := s.IsAcyclic()
	if err != nil || !ok {
		t.Fatalf("expected acyclic: %v %v", ok, err)
	}
	res := s.Run(RunOptions{})
	if !res.Terminated {
		t.Fatal("acyclic system did not terminate")
	}
	top := s.Document("top").Root
	want := syntax.MustParseDocument(`t{!wrap,y{"1"},y{"2"}}`)
	if !tree.Isomorphic(top, want) {
		t.Fatalf("top = %s", top.CanonicalString())
	}
}

func TestTerminatesHelper(t *testing.T) {
	s := MustParseSystem(tcSystem)
	ok, steps := s.Terminates(10000)
	if !ok || steps == 0 {
		t.Fatalf("Terminates = %v, %d", ok, steps)
	}
	inf := MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
	ok, _ = inf.Terminates(20)
	if ok {
		t.Fatal("infinite system reported terminating")
	}
	// The original must be untouched by Terminates.
	if s.Document("d1").Root.Size() != MustParseSystem(tcSystem).Document("d1").Root.Size() {
		t.Fatal("Terminates mutated the receiver")
	}
}

func TestEvalQueryFullResult(t *testing.T) {
	s := MustParseSystem(tcSystem)
	q := syntax.MustParseQuery(`pair{$x,$y} :- d1/r{t{a{$x},b{$y}}}`)
	res, err := s.EvalQuery(q, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("terminating system should give exact results")
	}
	if len(res.Answer) != 6 {
		t.Fatalf("answer size = %d, want 6 TC pairs:\n%s", len(res.Answer), res.Answer)
	}
	// Snapshot before any call sees nothing.
	snap, err := s.SnapshotQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 0 {
		t.Fatalf("snapshot should be empty, got %v", snap)
	}
}

func TestQFinite(t *testing.T) {
	s := MustParseSystem(tcSystem)
	q := syntax.MustParseQuery(`pair{$x} :- d1/r{t{a{$x}}}`)
	ans, ok, err := s.QFinite(q, 10000)
	if err != nil || !ok {
		t.Fatalf("QFinite: %v %v", ok, err)
	}
	if len(ans) != 3 {
		t.Fatalf("answers = %v", ans)
	}
	inf := MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
	_, ok, err = inf.QFinite(syntax.MustParseQuery(`out :- d/a{a}`), 20)
	if err != nil || ok {
		t.Fatalf("budget-bounded QFinite on infinite system: ok=%v err=%v", ok, err)
	}
}

// Section 4: both "****" and the residual call are possible answers to the
// rating query.
func TestPossibleAnswer(t *testing.T) {
	s := NewSystem()
	doc := syntax.MustParseDocument(`directory{cd{title{"Body and Soul"},!GetRating{"Body and Soul"}}}`)
	if err := s.AddDocument(tree.NewDocument("d", doc)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(ConstService("GetRating", tree.Forest{syntax.MustParseDocument(`rating{"****"}`)})); err != nil {
		t.Fatal(err)
	}
	q := syntax.MustParseQuery(`#R :- d/directory{cd{title{"Body and Soul"},#R}}`)
	// Wait: #R would also capture the call node itself and the title.
	// Use the rating shape directly instead.
	q = syntax.MustParseQuery(`rating{$r} :- d/directory{cd{title{"Body and Soul"},rating{$r}}}`)

	materialized := tree.Forest{syntax.MustParseDocument(`rating{"****"}`)}
	ok, exact, err := s.PossibleAnswer(q, materialized, 1000)
	if err != nil || !ok || !exact {
		t.Fatalf("materialized answer: ok=%v exact=%v err=%v", ok, exact, err)
	}
	intensional := tree.Forest{syntax.MustParseDocument(`!GetRating{"Body and Soul"}`)}
	ok, _, err = s.PossibleAnswer(q, intensional, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("intensional answer rejected")
	}
	wrong := tree.Forest{syntax.MustParseDocument(`rating{"*"}`)}
	ok, _, err = s.PossibleAnswer(q, wrong, 1000)
	if err != nil || ok {
		t.Fatalf("wrong answer accepted: %v %v", ok, err)
	}
}

// Section 4 fire-once: the recursive TC rule is not computed under the
// fire-once semantics, while acyclic systems coincide with the positive
// semantics.
func TestFireOnceSemantics(t *testing.T) {
	s := MustParseSystem(tcSystem)
	res := s.RunFireOnce()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	pairs := extractPairs(t, s.Document("d1").Root)
	if len(pairs) >= 6 {
		t.Fatalf("fire-once computed the full TC: %v", pairs)
	}
	for _, base := range []string{"1-2", "2-3", "3-4"} {
		if !pairs[base] {
			t.Errorf("fire-once lost base pair %s", base)
		}
	}

	acyclic := MustParseSystem(`
doc d0 = r{t{a{1},b{2}}}
doc d1 = r{!g}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
`)
	fair := acyclic.Copy()
	fair.Run(RunOptions{})
	once := acyclic.Copy()
	onceRes := once.RunFireOnce()
	if onceRes.Err != nil {
		t.Fatal(onceRes.Err)
	}
	if fair.CanonicalString() != once.CanonicalString() {
		t.Fatalf("fire-once and positive semantics differ on an acyclic system:\n%s\nvs\n%s",
			once.CanonicalString(), fair.CanonicalString())
	}
}

func TestFireOnceFiresNewCalls(t *testing.T) {
	// A call whose answer contains a new call: both fire exactly once.
	s := MustParseSystem(`
doc d0 = r{v{1}}
doc d  = top{!outer}
func outer = got{!inner} :-
func inner = w{$v} :- d0/r{v{$v}}
`)
	res := s.RunFireOnce()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("invocations = %d, want 2", res.Attempts)
	}
	want := syntax.MustParseDocument(`top{!outer,got{!inner,w{"1"}}}`)
	if !tree.Isomorphic(s.Document("d").Root, want) {
		t.Fatalf("d = %s", s.Document("d").Root.CanonicalString())
	}
}

func TestRunBudgets(t *testing.T) {
	inf := MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
	res := inf.Run(RunOptions{MaxNodes: 30})
	if res.Terminated {
		t.Fatal("terminated under node budget")
	}
	if inf.Size() <= 30 {
		t.Fatalf("size = %d; budget should stop just after exceeding", inf.Size())
	}
	steps := 0
	inf2 := MustParseSystem("doc d = a{!f}\nfunc f = a{!f} :- ")
	inf2.Run(RunOptions{MaxSteps: 3, OnStep: func(step int, c Call) {
		steps++
		if c.Node.Name != "f" {
			t.Errorf("unexpected call %q", c.Node.Name)
		}
	}})
	if steps != 3 {
		t.Fatalf("OnStep fired %d times", steps)
	}
}

func TestSchedulerFairnessWithinBudget(t *testing.T) {
	// Two independent growing branches: both must make progress under
	// every scheduler (fair sweeps), within a finite budget.
	sys := func() *System {
		return MustParseSystem(`
doc d = root{left{!f},right{!g}}
func f = a{!f} :-
func g = b{!g} :-
`)
	}
	for _, sched := range []Scheduler{RoundRobin{}, Reverse{}, NewRandom(7)} {
		s := sys()
		s.Run(RunOptions{Scheduler: sched, Parallelism: 1, MaxSteps: 20})
		left := s.Document("d").Root.Children[0]
		right := s.Document("d").Root.Children[1]
		if left.Name != "left" {
			left, right = right, left
		}
		if left.Size() < 4 || right.Size() < 4 {
			t.Fatalf("unfair progress: left=%d right=%d", left.Size(), right.Size())
		}
	}
}

func TestReducedInvariantMaintained(t *testing.T) {
	s := MustParseSystem(tcSystem)
	s.Run(RunOptions{})
	for _, name := range s.DocNames() {
		if !subsume.IsReduced(s.Document(name).Root) {
			t.Fatalf("document %q not reduced after run", name)
		}
	}
}

func TestSourceRoundTrip(t *testing.T) {
	s := MustParseSystem(tcSystem)
	src, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSystem(src)
	if err != nil {
		t.Fatalf("re-parse of Source output failed: %v\n%s", err, src)
	}
	if back.CanonicalString() != s.CanonicalString() {
		t.Fatalf("round trip changed the system:\n%s\nvs\n%s", back.CanonicalString(), s.CanonicalString())
	}
	// Both evolve to the same fixpoint.
	s.Run(RunOptions{})
	back.Run(RunOptions{})
	if back.CanonicalString() != s.CanonicalString() {
		t.Fatal("round-tripped system diverged")
	}
	// Black-box systems cannot be serialized.
	bb := NewSystem()
	if err := bb.AddService(ConstService("f", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := bb.Source(); err == nil {
		t.Fatal("black-box system serialized")
	}
}

func TestSourceRoundTripWithIneqs(t *testing.T) {
	s := MustParseSystem(`
doc d = r{v{1},v{2}}
func f = p{$x,$y} :- d/r{v{$x},v{$y}}, $x != $y, $x != "9"
`)
	src, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSystem(src); err != nil {
		t.Fatalf("inequality rendering not re-parseable: %v\n%s", err, src)
	}
}

func TestRestoreAdoptsVirginSeedRoot(t *testing.T) {
	s := MustParseSystem(`
doc seed = guess
doc busy = zzz{x{"1"}}
`)
	incoming := tree.NewLabel("db",
		tree.NewLabel("entry", tree.NewValue("a")))
	changed, err := s.Restore("seed", incoming)
	if err != nil || !changed {
		t.Fatalf("restore onto childless seed: changed=%v err=%v", changed, err)
	}
	root := s.Document("seed").Root
	if root.Name != "db" || len(root.Children) != 1 {
		t.Fatalf("seed did not adopt incoming root: %s", root.CanonicalString())
	}
	// Idempotent: restoring the same state again reports no growth.
	// Restore owns what it is given, so the second call gets a copy.
	if changed, err = s.Restore("seed", incoming.Copy()); err != nil || changed {
		t.Fatalf("re-restore: changed=%v err=%v", changed, err)
	}
	// A root that already carries information still refuses adoption.
	if _, err = s.Restore("busy", incoming); err == nil {
		t.Fatal("incomparable non-empty roots accepted")
	}
}
