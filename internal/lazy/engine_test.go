package lazy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/query"
	"axml/internal/syntax"
	"axml/internal/tree"
	"axml/internal/workload"
)

// Lazy evaluation is a client of the engine: on every terminating system
// its answer must be the full result [q](I) that EvalQuery computes over
// the whole fixpoint, at the sweep's width and at the worklist's. The
// fixtures are the jazz portal and the terminating random simple systems
// the batched-fixpoint differential draws.
func TestEvalMatchesFullFixpoint(t *testing.T) {
	type fixture struct {
		s  *core.System
		qs []*query.Query
	}
	fixtures := map[string]fixture{
		"jazz": {workload.JazzSystem(rand.New(rand.NewSource(1)), workload.JazzConfig{CDs: 8}), []*query.Query{workload.RatingQuery()}},
	}
	random := []*query.Query{
		syntax.MustParseQuery(`q{$x} :- d0/r{item{$x}}`),
		syntax.MustParseQuery(`q{$x,$y} :- d1/r{pair{a{$x},b{$y}}}`),
		syntax.MustParseQuery(`q{$x,$k} :- d0/r{item{$x}}, d1/r{out{$x,$k}}`),
		syntax.MustParseQuery(`q{$k} :- d1/r{extra{$k}}`),
	}
	for seed := int64(1); len(fixtures) < 5 && seed < 40; seed++ {
		s := workload.RandomSimpleSystem(rand.New(rand.NewSource(seed)), workload.SystemConfig{})
		if res := s.Copy().Run(core.RunOptions{Parallelism: 1, MaxSteps: 500}); res.Terminated && res.Steps > 0 {
			fixtures[fmt.Sprint("simple-", seed)] = fixture{s, random}
		}
	}
	answers := 0
	for name, f := range fixtures {
		for i, q := range f.qs {
			full, err := f.s.EvalQuery(q, core.RunOptions{Parallelism: 1})
			if err != nil || !full.Exact {
				t.Fatalf("%s q%d: full fixpoint exact=%v err=%v", name, i, full.Exact, err)
			}
			answers += len(full.Answer)
			for _, width := range []int{1, 4} {
				res, err := Eval(context.Background(), f.s.Copy(), q, core.RunOptions{Parallelism: width})
				if err != nil {
					t.Fatalf("%s q%d width %d: %v", name, i, width, err)
				}
				if !res.Stable || res.Answer.CanonicalString() != full.Answer.CanonicalString() {
					t.Fatalf("%s q%d width %d: lazy stable=%v answered %s, the full fixpoint %s",
						name, i, width, res.Stable, res.Answer.CanonicalString(), full.Answer.CanonicalString())
				}
			}
		}
	}
	if answers == 0 {
		t.Fatal("every full answer was empty")
	}
}

// twoRoundSystem needs two rounds: fetch's answer brings a call, more,
// that the first round's analysis has not seen.
func twoRoundSystem(t *testing.T, fetch func()) *core.System {
	t.Helper()
	s := core.MustParseSystem(`func more = v{"2"} :- `)
	err := s.AddService(&core.GoService{Name: "fetch", Fn: func(context.Context, core.Binding) (tree.Forest, error) {
		fetch()
		return tree.Forest{syntax.MustParseDocument(`item{"1",!more}`)}, nil
	}})
	if err == nil {
		err = s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`r{!fetch}`)))
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var twoRoundQuery = syntax.MustParseQuery(`out{$x,$y} :- d/r{item{$x,v{$y}}}`)

// Cancelling the context mid-round ends the evaluation with
// context.Canceled at a consistent state, from which a second evaluation
// on the same system reaches the full answer.
func TestEvalCancelledThenResumes(t *testing.T) {
	for _, width := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := twoRoundSystem(t, cancel)
		opts := core.RunOptions{Parallelism: width}
		if _, err := Eval(ctx, s, twoRoundQuery, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: cancelled evaluation returned %v", width, err)
		}
		res, err := Eval(context.Background(), s, twoRoundQuery, opts)
		if err != nil || !res.Stable {
			t.Fatalf("width %d: resumed evaluation stable=%v err=%v", width, res.Stable, err)
		}
		if got := res.Answer.CanonicalString(); got != `out{"1","2"}` {
			t.Fatalf("width %d: resumed answer %s", width, got)
		}
	}
}

// A lazy evaluation's runs report to the caller's Tracer like any run:
// a sweep span per sweep and a call span per firing.
func TestEvalTraces(t *testing.T) {
	var buf bytes.Buffer
	s := twoRoundSystem(t, func() {})
	res, err := Eval(context.Background(), s, twoRoundQuery, core.RunOptions{Parallelism: 1, Tracer: obs.NewTracer(&buf)})
	if err != nil || !res.Stable || res.Rounds < 2 {
		t.Fatalf("evaluation: %+v err=%v", res, err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var sp obs.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("span %q: %v", line, err)
		}
		kinds[sp.Kind]++
	}
	if kinds["sweep"] == 0 || kinds["call"] != res.Invocations {
		t.Fatalf("spans %v for %d invocations", kinds, res.Invocations)
	}
}

// The relevance analysis owns RunOptions.Relevant.
func TestEvalRejectsCallerRelevant(t *testing.T) {
	s := core.MustParseSystem(portalSystem)
	opts := core.RunOptions{Relevant: func(core.Call) bool { return true }}
	if _, err := Eval(context.Background(), s, syntax.MustParseQuery(ratingQuery()), opts); err == nil {
		t.Fatal("a caller-set Relevant predicate was accepted")
	}
}
