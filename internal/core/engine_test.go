package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// engineFixtures are terminating systems with genuinely different shapes:
// transitive closure (joins across sweeps), fan-out (many independent
// calls per sweep), a context-reading nester, and a cross-document
// pipeline. Each is built fresh per use — runs mutate documents.
func engineFixtures() map[string]func() *System {
	return map[string]func() *System{
		"transitive-closure": func() *System { return MustParseSystem(tcSystem) },
		"fanout": func() *System {
			return MustParseSystem(`
doc d = root{x{!f},y{!f},z{!f},w{!g},v{!g}}
doc facts = r{item{"1"},item{"2"},item{"3"}}
func f = got{$x} :- facts/r{item{$x}}
func g = pair{$x,$y} :- facts/r{item{$x}}, facts/r{item{$y}}
`)
		},
		"nesting": func() *System {
			return MustParseSystem(`
doc d = a{src{"p"},src{"q"},!f}
func f = out{#T} :- context/a{src{#T}}
`)
		},
		"pipeline": func() *System {
			return MustParseSystem(`
doc d0 = r{t{a{1},b{2}},t{a{2},b{3}}}
doc d1 = s{!copy}
doc d2 = t{!close}
func copy  = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func close = pair{$x,$y} :- d1/s{t{a{$x},b{$z}}}, d1/s{t{a{$z},b{$y}}}
`)
		},
	}
}

// Theorem 2.1 in executable form: for every fixture the parallel engine
// must reach exactly the sequential engine's fixpoint — document digests
// equal at every parallelism level — even though step/attempt counters
// may differ.
func TestParallelMatchesSequentialDigests(t *testing.T) {
	for name, mk := range engineFixtures() {
		t.Run(name, func(t *testing.T) {
			seq := mk()
			sres := seq.Run(RunOptions{Parallelism: 1})
			if sres.Err != nil || !sres.Terminated {
				t.Fatalf("sequential run: %+v", sres)
			}
			want := seq.CanonicalString()
			for _, par := range []int{0, 2, 4, 8} {
				s := mk()
				res := s.Run(RunOptions{Parallelism: par})
				if res.Err != nil || !res.Terminated {
					t.Fatalf("parallelism %d: %+v", par, res)
				}
				if got := s.CanonicalString(); got != want {
					t.Fatalf("parallelism %d diverged:\n%s\nwant\n%s", par, got, want)
				}
			}
		})
	}
}

// A slow service must be cancellable: RunContext returns promptly with
// the context error once the caller gives up, at every parallelism.
func TestRunContextCancellation(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			s := NewSystem()
			if err := s.AddDocument(tree.NewDocument("d",
				syntax.MustParseDocument(`a{!slow}`))); err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{}, 1)
			if err := s.AddService(&GoService{Name: "slow",
				Fn: func(ctx context.Context, b Binding) (tree.Forest, error) {
					select {
					case started <- struct{}{}:
					default:
					}
					<-ctx.Done()
					return nil, ctx.Err()
				}}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				<-started
				cancel()
			}()
			done := make(chan RunResult, 1)
			go func() { done <- s.RunContext(ctx, RunOptions{Parallelism: par}) }()
			select {
			case res := <-done:
				if !errors.Is(res.Err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", res.Err)
				}
				if res.Terminated {
					t.Fatal("cancelled run reported terminated")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunContext did not return after cancel")
			}
		})
	}
}

// An already-expired context stops the run before any service fires.
func TestRunContextDeadExpiresImmediately(t *testing.T) {
	s := MustParseSystem(tcSystem)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := s.RunContext(ctx, RunOptions{})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v", res.Err)
	}
	if res.Attempts != 0 {
		t.Fatalf("attempts = %d on a dead context", res.Attempts)
	}
}

// Parallel firing actually happens: with enough independent slow calls,
// peak in-flight concurrency under Parallelism: 4 must exceed 1.
func TestParallelFiresConcurrently(t *testing.T) {
	s := NewSystem()
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(
		`root{x1{!f},x2{!f},x3{!f},x4{!f},x5{!f},x6{!f},x7{!f},x8{!f}}`))); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inflight, peak := 0, 0
	if err := s.AddService(&GoService{Name: "f",
		Fn: func(ctx context.Context, b Binding) (tree.Forest, error) {
			mu.Lock()
			inflight++
			if inflight > peak {
				peak = inflight
			}
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			inflight--
			mu.Unlock()
			return tree.Forest{tree.NewLabel("done")}, nil
		}}); err != nil {
		t.Fatal(err)
	}
	res := s.Run(RunOptions{Parallelism: 4})
	if res.Err != nil || !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	if peak < 2 {
		t.Fatalf("peak in-flight = %d; parallel engine never overlapped calls", peak)
	}
	if peak > 4 {
		t.Fatalf("peak in-flight = %d exceeds the worker bound 4", peak)
	}
}

// Two concurrent RunContext calls on one shared System must race safely
// (the version funnel lives on the System) and jointly reach the same
// fixpoint a single run reaches.
func TestConcurrentRunsOnSharedSystem(t *testing.T) {
	want := func() string {
		s := MustParseSystem(tcSystem)
		s.Run(RunOptions{Parallelism: 1})
		return s.CanonicalString()
	}()
	s := MustParseSystem(tcSystem)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(par int) {
			defer wg.Done()
			res := s.Run(RunOptions{Parallelism: par})
			if res.Err != nil {
				t.Errorf("parallelism %d: %v", par, res.Err)
			}
		}(i + 1)
	}
	wg.Wait()
	if got := s.CanonicalString(); got != want {
		t.Fatalf("shared-system fixpoint diverged:\n%s\nwant\n%s", got, want)
	}
}

// Indexed matching is a pure accelerator: with every index dropped (the
// naive walk answers every match) each fixture must reach the indexed
// sweep's fixpoint at every parallelism level, and the run must report no
// index traffic at all.
func TestFixpointInvariantWithoutIndexes(t *testing.T) {
	for name, mk := range engineFixtures() {
		t.Run(name, func(t *testing.T) {
			ref := mk()
			rres := ref.Run(RunOptions{Parallelism: 1})
			if rres.Err != nil || !rres.Terminated {
				t.Fatalf("indexed run: %+v", rres)
			}
			if rres.Stats.IndexHits+rres.Stats.IndexMisses == 0 {
				t.Fatal("indexed run reported no index activity; the comparison is vacuous")
			}
			want := ref.CanonicalString()
			for _, par := range []int{1, 2, 4, 8} {
				s := mk()
				s.dropIndexes()
				res := s.Run(RunOptions{Parallelism: par})
				if res.Err != nil || !res.Terminated {
					t.Fatalf("parallelism %d: %+v", par, res)
				}
				if got := s.CanonicalString(); got != want {
					t.Fatalf("parallelism %d diverged without indexes:\n%s\nwant\n%s", par, got, want)
				}
				if res.Stats.IndexHits != 0 || res.Stats.IndexMisses != 0 {
					t.Fatalf("parallelism %d: indexes dropped but stats report hits=%d misses=%d",
						par, res.Stats.IndexHits, res.Stats.IndexMisses)
				}
			}
		})
	}
}

// A group of one allocates no more than its parts: the gate read, the
// call's binding, one Service.Invoke and the merge. A stack that does not
// batch (here a QueryService) is asked member by member, so the group
// path charges it no binding, forest or error slice of its own.
func TestGroupOfOneAllocatesOnlyItsParts(t *testing.T) {
	s := MustParseSystem("doc d = a{!f}\nfunc f = b :- ")
	s.Run(RunOptions{Parallelism: 1}) // a{!f,b}: every later answer merges nothing
	c, svc, ctx := s.Calls()[0], s.Service("f"), context.Background()
	parts := testing.AllocsPerRun(200, func() {
		s.gateOf(c, "")
		forest, _ := svc.Invoke(ctx, s.bindingOf(c, nil))
		s.merge(c, forest)
	})
	e := newEngine(s, RunOptions{Parallelism: 1})
	e.rlock = s.engineMu.RLock
	group := []Call{c}
	fired := testing.AllocsPerRun(200, func() {
		// Forget both gates, so the call is evaluated in full each time.
		delete(e.seen, c.Node)
		delete(s.gate, c.Node)
		e.fireGroup(ctx, obs.SpanContext{}, "f", group)
	})
	if res := e.result(); res.Attempts < 200 || res.Steps != 0 {
		t.Fatalf("the group did not fire as measured: %+v", res)
	}
	if fired > parts {
		t.Fatalf("a group of one allocates %.0f objects, its parts %.0f", fired, parts)
	}
}
