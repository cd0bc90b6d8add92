package axml_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/lazy"
	"axml/internal/pathexpr"
	"axml/internal/regular"
	"axml/internal/syntax"
	"axml/internal/tree"
	"axml/internal/turing"
	"axml/internal/workload"
)

// forward is a middleware layer that forwards Invoke and nothing else.
type forward struct{ core.Service }

func (f forward) Unwrap() core.Service { return f.Service }

// versioned is a black box with an external-state token: a rerun finds
// its call sterile while the token and the call's context stand still.
type versioned struct{}

func (versioned) ServiceName() string { return "v" }

func (versioned) Invoke(context.Context, core.Binding) (tree.Forest, error) {
	return tree.Forest{tree.NewLabel("b")}, nil
}

func (versioned) Version(context.Context) string { return "t1" }

// wrapped rebuilds s with every service behind a forward layer.
func wrapped(s *core.System) *core.System {
	w := core.NewSystem()
	for _, name := range s.DocNames() {
		if err := w.AddDocument(tree.NewDocument(name, s.Document(name).Root.Copy())); err != nil {
			panic(err)
		}
	}
	for _, name := range s.FuncNames() {
		if err := w.AddService(forward{s.Service(name)}); err != nil {
			panic(err)
		}
	}
	return w
}

// capabilities renders everything an analysis or a run reads of s's
// services: positivity and simplicity (Def 3.2), Validate, Source, the
// dependency graph, a sweep and its rerun (delta evaluations, batches,
// the tokens' sterile calls), the weak lazy analysis of a query over
// every document, regular's termination decision (Thm 3.3) and the
// positive+reg translation (Prop 5.1).
func capabilities(s *core.System) []string {
	var out []string
	add := func(k string, v ...any) { out = append(out, k+": "+fmt.Sprintln(v...)) }
	add("positive, simple", s.IsPositive(), s.IsSimple())
	add("validate", s.Validate())
	src, err := s.Source()
	add("source", src, err)
	if g, err := s.DependencyGraph(); err != nil {
		add("dependency graph", err)
	} else {
		add("dependency graph", g.Edges)
	}
	c := s.Copy()
	for _, run := range []string{"run", "rerun"} {
		r := c.Run(core.RunOptions{Parallelism: 1, MaxSteps: 12})
		st := r.Stats
		add(run, r.Steps, r.Terminated, st.CallsFired, st.CallsSterile, st.DeltaEvals, st.Batches, st.CallsBatched)
	}
	add("state", c.CanonicalString())
	for _, d := range s.DocNames() {
		root := s.Document(d).Root.Name
		a, err := lazy.Analyze(s, syntax.MustParseQuery(fmt.Sprintf(`out{$x} :- %s/%s{$x}`, d, root)))
		if err != nil {
			add("lazy "+d, err)
		} else {
			var needed []string
			for n := range a.NeededDocs {
				needed = append(needed, n)
			}
			sort.Strings(needed)
			add("lazy "+d, needed, len(a.Relevant))
		}
		tr, err := pathexpr.Translate(s, pathexpr.MustParseRQuery(fmt.Sprintf(`out{$x} :- %s/%s{<_*>{$x}}`, d, root)))
		if err != nil {
			add("translate "+d, err)
		} else {
			tsrc, err := tr.System.Source()
			add("translate "+d, tsrc, err, tr.Query, tr.TokenServices)
		}
	}
	if verdict, g, err := regular.Terminates(s, regular.BuildOptions{}); err != nil {
		add("terminates", err)
	} else {
		add("terminates", verdict, g.VertexCount(), g.Invocations)
	}
	return out
}

// A middleware layer does not change what a service is: the claims'
// positive systems (and a versioned black box) with every service behind
// a layer that forwards Invoke only answer every capability question as
// they do unwrapped. A wrapper that hid the query underneath turned a
// positive system into a black-box one for some analyses and not others.
func TestWrappedServicesKeepTheirCapabilities(t *testing.T) {
	parse := func(src string) func() *core.System {
		return func() *core.System { return core.MustParseSystem(src) }
	}
	for _, c := range []struct {
		name  string
		build func() *core.System
	}{
		{"tc-chain6", func() *core.System { return tcSystem(chainEdges(6)) }},
		{"ex2.1-loop", parse(ex21Src)},
		{"ex3.3-tree-variable", parse(ex33Src)},
		{"const", parse("doc d = a{!f}\nfunc f = b{c} :- ")},
		{"mutual-loop", parse("doc d = top{!f}\nfunc f = a{!g} :- \nfunc g = b{!f} :- ")},
		{"guarded", parse("doc d0 = r{v{1},v{2}}\ndoc d = top{!f}\nfunc f = a{$x,!g} :- d0/r{v{$x}}\nfunc g = b{$x} :- d0/r{v{$x}}")},
		{"context-fix", parse("doc d = a{b,!f}\nfunc f = b :- context/a{b}")},
		{"nested-sections", parse("doc src = store{item{name{\"alpha\"}},item{name{\"beta\"}}}\ndoc lib = lib{section{sub},!fill}\nfunc fill = section{cd{title{$n}}} :- src/store{item{name{$n}}}")},
		{"acyclic-copy", parse("doc d0 = r{t{a{1},b{2}},t{a{2},b{3}}}\ndoc d1 = r{!g}\nfunc g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}")},
		{"jazz", func() *core.System {
			return workload.JazzSystem(rand.New(rand.NewSource(claimSeed)), workload.JazzConfig{CDs: 8, MaterializedRatio: 0.3, IrrelevantBranches: 2})
		}},
		{"turing", func() *core.System {
			s, err := turing.Compile(turing.UnaryIncrement(), []string{"1"})
			if err != nil {
				panic(err)
			}
			return s
		}},
		{"versioned-black-box", func() *core.System {
			s := core.NewSystem()
			if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{!v}`))); err != nil {
				panic(err)
			}
			if err := s.AddService(versioned{}); err != nil {
				panic(err)
			}
			return s
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, wrap := capabilities(c.build()), capabilities(wrapped(c.build()))
			clip := func(s string) string { return strings.TrimSpace(s[:min(len(s), 240)]) }
			for i := range plain {
				if plain[i] != wrap[i] {
					t.Errorf("wrapped %s\nplain   %s", clip(wrap[i]), clip(plain[i]))
				}
			}
		})
	}
}
