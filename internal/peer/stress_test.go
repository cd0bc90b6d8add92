package peer

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/faults"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// TestConcurrentRunsStress races several parallel RunContexts over ONE
// shared system whose services mix every concurrency hazard the engine
// claims to handle: a remote service reached over real HTTP (hardened
// with retries), a local service with injected transient failures and
// latency, and a plain local query service — all under the Degrade
// policy. Theorem 2.1 says the interleaving cannot matter; the test
// checks exactly that, against a sequential reference fixpoint, and the
// race detector checks the engine's locking while it happens.
func TestConcurrentRunsStress(t *testing.T) {
	// Backend peer answering the remote service.
	backendSys := core.NewSystem()
	if err := backendSys.AddService(core.ConstService("Remote",
		tree.Forest{syntax.MustParseDocument(`remote{score{"9"}}`)})); err != nil {
		t.Fatal(err)
	}
	backend := mustOpen("backend", backendSys)
	srv := httptest.NewServer(backend.Handler())
	defer srv.Close()

	const items = 12
	var b strings.Builder
	b.WriteString("jobs{")
	for i := 0; i < items; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `item{name{"i%d"},!Remote,!Flaky,!Tag}`, i)
	}
	b.WriteString("}")

	build := func(remote core.Service, flaky core.Service) *core.System {
		s := core.NewSystem()
		if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(b.String()))); err != nil {
			t.Fatal(err)
		}
		for _, svc := range []core.Service{
			remote,
			flaky,
			core.ConstService("Tag", tree.Forest{syntax.MustParseDocument(`tag{"ok"}`)}),
		} {
			if err := s.AddService(svc); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return s
	}

	flakyForest := tree.Forest{syntax.MustParseDocument(`flaky{"done"}`)}
	shared := build(
		core.Harden(&RemoteService{Name: "Remote", URL: srv.URL},
			core.HardenOptions{Attempts: 4, BaseDelay: time.Millisecond}),
		&faults.FaultService{
			Service:    core.ConstService("Flaky", flakyForest),
			ErrorEvery: 3,
			Latency:    200 * time.Microsecond,
		},
	)

	// The reference fixpoint: same services without faults or network,
	// computed sequentially on a private copy.
	ref := build(
		core.ConstService("Remote", tree.Forest{syntax.MustParseDocument(`remote{score{"9"}}`)}),
		core.ConstService("Flaky", flakyForest),
	)
	if res := ref.Run(core.RunOptions{Parallelism: 1}); !res.Terminated {
		t.Fatalf("reference run did not terminate: %+v", res)
	}
	want := ref.CanonicalString()

	// Four engines race on the shared system at different parallelism.
	var wg sync.WaitGroup
	results := make([]core.RunResult, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = shared.RunContext(context.Background(), core.RunOptions{
				Parallelism:    1 + i,
				ErrorPolicy:    core.Degrade,
				MaxErrorSweeps: 20,
			})
		}(i)
	}
	wg.Wait()

	terminated := false
	for i, res := range results {
		if res.Err != nil && !res.Terminated {
			t.Logf("run %d rode through failures: %v", i, res.Err)
		}
		terminated = terminated || res.Terminated
	}
	if !terminated {
		t.Fatalf("no run reached the fixpoint: %+v", results)
	}
	if got := shared.CanonicalString(); got != want {
		t.Fatalf("concurrent fixpoint diverged from sequential reference:\n%s\nwant:\n%s", got, want)
	}
}

// TestIncrementalPeerWorkloadDigests pins the incremental engine to the
// sequential fixpoint on the peer workload: remote services over real
// HTTP (hardened black boxes, which the event-driven scheduler must
// conservatively re-wake) mixed with local declarative and constant
// services, at every parallelism level.
func TestIncrementalPeerWorkloadDigests(t *testing.T) {
	backendSys := core.NewSystem()
	if err := backendSys.AddService(core.ConstService("Remote",
		tree.Forest{syntax.MustParseDocument(`remote{score{"9"}}`)})); err != nil {
		t.Fatal(err)
	}
	backend := mustOpen("backend", backendSys)
	srv := httptest.NewServer(backend.Handler())
	defer srv.Close()

	const items = 8
	var b strings.Builder
	b.WriteString("jobs{")
	for i := 0; i < items; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `item{name{"i%d"},!Remote,!Tag}`, i)
	}
	b.WriteString("}")
	build := func(remote core.Service) *core.System {
		s := core.NewSystem()
		if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(b.String()))); err != nil {
			t.Fatal(err)
		}
		if err := s.AddService(remote); err != nil {
			t.Fatal(err)
		}
		if err := s.AddService(core.ConstService("Tag",
			tree.Forest{syntax.MustParseDocument(`tag{"ok"}`)})); err != nil {
			t.Fatal(err)
		}
		q := syntax.MustParseQuery(`seen{$n} :- d/jobs{item{name{$n},tag{"ok"}}}`)
		q.Name = "Audit"
		if err := s.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := s.AddDocument(tree.NewDocument("audit",
			syntax.MustParseDocument(`a{!Audit}`))); err != nil {
			t.Fatal(err)
		}
		return s
	}

	ref := build(core.ConstService("Remote",
		tree.Forest{syntax.MustParseDocument(`remote{score{"9"}}`)}))
	if res := ref.Run(core.RunOptions{Parallelism: 1}); !res.Terminated {
		t.Fatalf("reference run: %+v", res)
	}
	want := ref.CanonicalString()

	for _, par := range []int{1, 2, 4, 8} {
		s := build(core.Harden(&RemoteService{Name: "Remote", URL: srv.URL},
			core.HardenOptions{Attempts: 4, BaseDelay: time.Millisecond}))
		res := s.Run(core.RunOptions{Parallelism: par})
		if res.Err != nil || !res.Terminated {
			t.Fatalf("incremental parallelism %d: %+v", par, res)
		}
		if got := s.CanonicalString(); got != want {
			t.Fatalf("parallelism %d diverged:\n%s\nwant:\n%s", par, got, want)
		}
	}
}
