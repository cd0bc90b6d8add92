package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// batchScript is a BatchService answering each binding with a copy of its
// context's first child; it records every exchange's size and fails the
// positions fail names on its first exchange.
type batchScript struct {
	name  string
	fail  map[int]bool
	block time.Duration

	mu    sync.Mutex
	sizes []int
}

func (s *batchScript) ServiceName() string { return s.name }

func (s *batchScript) Invoke(ctx context.Context, b Binding) (tree.Forest, error) {
	fs, errs := s.InvokeBatch(ctx, []Binding{b})
	return fs[0], errs[0]
}

func (s *batchScript) InvokeBatch(_ context.Context, bs []Binding) ([]tree.Forest, []error) {
	s.mu.Lock()
	first := len(s.sizes) == 0
	s.sizes = append(s.sizes, len(bs))
	s.mu.Unlock()
	time.Sleep(s.block)
	fs, errs := make([]tree.Forest, len(bs)), make([]error, len(bs))
	for i, b := range bs {
		if first && s.fail[i] {
			errs[i] = fmt.Errorf("script: member %d", i)
			continue
		}
		fs[i] = tree.Forest{tree.NewLabel("got", b.Context.Children[0].Copy())}
	}
	return fs, errs
}

// bindings is n bindings whose contexts hold their positions.
func bindings(n int) []Binding {
	bs := make([]Binding, n)
	for i := range bs {
		bs[i].Context = tree.NewLabel("c", tree.NewValue(fmt.Sprint(i)))
	}
	return bs
}

func (s *batchScript) exchanges() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sizes...)
}

func TestBatchableNeedsEveryLayer(t *testing.T) {
	svc := &batchScript{name: "f"}
	for _, c := range []struct {
		svc  Service
		want bool
	}{
		{svc, true},
		{Harden(svc, HardenOptions{Attempts: 3, Timeout: time.Second, BreakerOpensAt: 2}), true},
		{&Retry{Service: ConstService("f", nil)}, false},
		{&GoService{Name: "f"}, false},
	} {
		if got := batchable(c.svc); got != c.want {
			t.Errorf("batchable(%T) = %v, want %v", c.svc, got, c.want)
		}
	}
}

// Retry re-sends, as one batch, only the members that failed.
func TestRetryBatchResendsFailedMembers(t *testing.T) {
	svc := &batchScript{name: "f", fail: map[int]bool{1: true, 3: true}}
	r := &Retry{Service: svc, Attempts: 3, Jitter: -1, Sleep: func(time.Duration) {}}
	bs := bindings(4)
	fs, errs := r.InvokeBatch(context.Background(), bs)
	for i := range bs {
		if errs[i] != nil || len(fs[i]) != 1 || fs[i][0].Children[0].Name != fmt.Sprint(i) {
			t.Fatalf("member %d: %v, %v", i, fs[i], errs[i])
		}
	}
	if got := svc.exchanges(); len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("exchanges %v; want the batch of 4, then its 2 failed members", got)
	}
	if r.Retries() != 1 || r.Recovered() != 2 {
		t.Fatalf("retries %d, recovered %d", r.Retries(), r.Recovered())
	}
}

// A batch is one exchange for the breaker: answered in part, it counts as
// a success; failed whole, as one failure; open, it is refused whole.
func TestBreakerBatchIsOneExchange(t *testing.T) {
	bs := bindings(2)
	br := &Breaker{Service: &batchScript{name: "f", fail: map[int]bool{0: true}}, OpensAt: 1}
	if _, errs := br.InvokeBatch(context.Background(), bs); errs[0] == nil || errs[1] != nil || br.State() != "closed" {
		t.Fatalf("a partly answered batch: %v, breaker %s", errs, br.State())
	}
	br = &Breaker{Service: &batchScript{name: "f", fail: map[int]bool{0: true, 1: true}}, OpensAt: 1}
	br.InvokeBatch(context.Background(), bs)
	if br.State() != "open" || br.Opens() != 1 {
		t.Fatalf("a failed batch: breaker %s, %d opens", br.State(), br.Opens())
	}
	if _, errs := br.InvokeBatch(context.Background(), bs); !errors.Is(errs[0], ErrBreakerOpen) ||
		!errors.Is(errs[1], ErrBreakerOpen) || br.ShortCircuits() != 2 {
		t.Fatalf("an open breaker: %v, %d short circuits", errs, br.ShortCircuits())
	}
}

// The whole batch is one attempt under one deadline.
func TestTimeoutBatchExpiresWhole(t *testing.T) {
	to := &Timeout{Service: &batchScript{name: "f", block: time.Second}, Limit: 10 * time.Millisecond}
	_, errs := to.InvokeBatch(context.Background(), bindings(3))
	for i, err := range errs {
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("member %d: %v, want ErrTimeout", i, err)
		}
	}
}

// A sweep fires a batchable service's calls as one batch at the position
// of the first of them, counts it, and traces it: a batch span under the
// sweep, the members' merge spans under the batch.
func TestSweepBatchesCallsToOneService(t *testing.T) {
	s := NewSystem()
	f := &batchScript{name: "f"}
	if err := s.AddService(f); err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(ConstService("g", tree.Forest{tree.NewLabel("g")})); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`r{a{x{"1"},!f},b{x{"2"},!f},c{x{"3"},!f,!g}}`))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	res := s.Run(RunOptions{Parallelism: 1, Metrics: reg, Tracer: obs.NewTracer(&buf)})
	if !res.Terminated || res.Err != nil {
		t.Fatalf("run: %+v", res)
	}
	want := syntax.MustParseDocument(`r{a{x{"1"},!f,got{x{"1"}}},b{x{"2"},!f,got{x{"2"}}},c{x{"3"},!f,!g,got{x{"3"}},g}}`)
	if got := s.Document("d").Root; !tree.Isomorphic(got, want) {
		t.Fatalf("document %s", got.CanonicalString())
	}
	if got := f.exchanges(); len(got) != res.Sweeps || got[0] != 3 {
		t.Fatalf("exchanges %v over %d sweeps; want one batch of 3 per sweep", got, res.Sweeps)
	}
	if res.Stats.Batches != res.Sweeps || res.Stats.CallsBatched != 3*res.Sweeps ||
		reg.Counter("engine.batches").Value() != int64(res.Sweeps) ||
		reg.Counter("engine.calls.batched").Value() != int64(3*res.Sweeps) {
		t.Fatalf("stats %+v, engine.batches %d", res.Stats, reg.Counter("engine.batches").Value())
	}
	spans := map[string]obs.Span{}
	var batch, merges []obs.Span
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var sp obs.Span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		spans[sp.Span] = sp
		switch {
		case sp.Kind == "batch":
			batch = append(batch, sp)
		case sp.Kind == "merge" && sp.Name == "f":
			merges = append(merges, sp)
		}
	}
	if len(batch) == 0 || batch[0].Attrs["calls"] != 3 || batch[0].Attrs["failed"] != 0 ||
		spans[batch[0].Parent].Kind != "sweep" {
		t.Fatalf("batch spans %+v", batch)
	}
	for _, m := range merges {
		if spans[m.Parent].Kind != "batch" {
			t.Fatalf("merge span %+v is not a child of the batch", m)
		}
	}
	if len(merges) != 3 {
		t.Fatalf("%d merge spans of f, want 3", len(merges))
	}
}
