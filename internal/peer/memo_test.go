package peer

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"axml/internal/core"
	"axml/internal/faults"
	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// memoSeed is the served peer of the memo tests: a store Lookup reads, an
// inbox a Subscriber fills, a replica seed a mirror adopts and a view a
// sweep grows. Its Inbox service (added by memoSystem) also reads late,
// a document that only appears at runtime.
const memoSeed = `
doc store = store{item{id{"a"}},item{id{"b"}}}
doc inbox = inbox
doc replica = guess
doc view = v{slot{!Lookup}}
func Lookup = hit{$v} :- store/store{item{id{$v}}}
func Echo = echo{$x} :- input/input{$x}
`

func memoSystem(t testing.TB) *core.System {
	t.Helper()
	s := core.MustParseSystem(memoSeed)
	q := syntax.MustParseQuery(`got{$k} :- inbox/inbox{got{key{$k}}}, late/late{ok}`)
	q.Name = "Inbox"
	if err := s.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	return s
}

// memoEnvelopes are the invocations the memo tests ask for.
var memoEnvelopes = []Envelope{
	{Service: "Lookup"},
	{Service: "Inbox"},
	{Service: "Echo", Input: tree.NewLabel(tree.Input, tree.NewValue("x"))},
	{Service: "Echo", Input: tree.NewLabel(tree.Input, tree.NewValue("y"))},
}

// fetch sends one request and returns the 200 body, checking that the
// answer declared its length.
func fetch(method, url string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil || resp.StatusCode != http.StatusOK:
		return nil, nil, fmt.Errorf("%s %s: %s %s (%v)", method, url, resp.Status, data, err)
	case resp.ContentLength != int64(len(data)):
		return nil, nil, fmt.Errorf("%s %s: Content-Length %d, body %d bytes", method, url, resp.ContentLength, len(data))
	}
	return data, resp.Header, nil
}

func rawCall(t testing.TB, method, url string, body []byte) ([]byte, http.Header) {
	t.Helper()
	data, hdr, err := fetch(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return data, hdr
}

func invokeBody(t testing.TB, env Envelope) []byte {
	t.Helper()
	body, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func invokeRaw(t testing.TB, url string, env Envelope) ([]byte, http.Header) {
	t.Helper()
	return rawCall(t, http.MethodPost, url+PathInvoke, invokeBody(t, env))
}

// servedEqualsFresh checks every document p serves at /axml/doc and as a
// full /axml/delta, and every envelope's /axml/invoke answer, against a
// fresh encoding of the live state.
func servedEqualsFresh(t *testing.T, p *Peer, url string, envs []Envelope, step string) {
	t.Helper()
	docs, fulls := map[string][]byte{}, map[string][]byte{}
	p.system.View(func() {
		for _, name := range p.system.DocNames() {
			root := p.system.Document(name).Root
			var err error
			if docs[name], err = MarshalTree(root); err == nil {
				fulls[name], err = marshalDelta(Delta{Doc: name, Mode: DeltaFull, To: digestHex(root), Full: root}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	for name, want := range docs {
		if got, _ := rawCall(t, http.MethodGet, url+PathDoc+name, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: /axml/doc/%s served\n%s\nfresh\n%s", step, name, got, want)
		}
		if got, _ := rawCall(t, http.MethodGet, url+PathDelta+name, nil); !bytes.Equal(got, fulls[name]) {
			t.Fatalf("%s: full delta of %s served\n%s\nfresh\n%s", step, name, got, fulls[name])
		}
	}
	for _, env := range envs {
		got, _ := invokeRaw(t, url, env)
		forest, err := p.Serve(context.Background(), env)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := MarshalForest(forest); !bytes.Equal(got, want) {
			t.Fatalf("%s: %s answered\n%s\nfresh\n%s", step, env.Service, got, want)
		}
	}
}

// Served bytes are the live state's, whatever grew in between: seeded
// sequences of pushes, appends, a Touch that reorders children, a seed
// adoption and full pulls by a mirror, sweep merges and a document added
// at runtime (which the Inbox answer read as absent) all leave every
// /axml/doc, full delta and invoke answer equal to a fresh encoding.
func TestMemoServedBytesMatchFreshEncoding(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		reg := obs.NewRegistry()
		p := mustOpen("memo", memoSystem(t), WithObservability(reg))
		srv := httptest.NewServer(p.Handler())
		origin := mustOpen("origin", core.MustParseSystem(`doc src = list{e{"0"}}`))
		origin.anchors.max = 0 // no anchor kept: every sync is a full pull
		osrv := httptest.NewServer(origin.Handler())
		push := subscribe(t, p, "in", "inbox")
		mirror := &Mirror{Remote: osrv.URL, RemoteDoc: "src", LocalDoc: "replica"}
		rng := rand.New(rand.NewSource(seed))
		added := false
		for step := 0; step < 40; step++ {
			var err error
			switch op := rng.Intn(7); {
			case op == 0:
				err = push(tree.NewLabel("got", tree.NewLabel("key", tree.NewValue(fmt.Sprint("k", rng.Intn(8))))))
			case op == 1:
				p.System(func(s *core.System) {
					_, err = s.Append("store", s.Document("store").Root, tree.Forest{
						tree.NewLabel("item", tree.NewLabel("id", tree.NewValue(fmt.Sprint("s", step))))})
				})
			case op == 2:
				p.System(func(s *core.System) {
					slices.Reverse(s.Document("store").Root.Children)
					s.Touch("store")
				})
			case op == 3:
				origin.System(func(s *core.System) {
					_, err = s.Append("src", s.Document("src").Root, tree.Forest{tree.NewLabel("e", tree.NewValue(fmt.Sprint(step)))})
				})
				if err == nil {
					_, err = mirror.Sync(context.Background(), p)
				}
			case op == 4:
				_, err = p.Sweep()
			case op == 5 && !added:
				added = true
				p.System(func(s *core.System) {
					err = s.AddDocument(tree.NewDocument("late", syntax.MustParseDocument(`late{ok}`)))
				})
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			servedEqualsFresh(t, p, srv.URL, memoEnvelopes, fmt.Sprintf("seed %d step %d", seed, step))
		}
		st := p.Status()
		if st.MemoDocHits == 0 || st.MemoDocMisses == 0 || st.MemoAnswerHits == 0 || st.MemoAnswerMisses == 0 || st.MemoBytes == 0 {
			t.Fatalf("seed %d: the memo was not exercised: %+v", seed, st)
		}
		if got := reg.Counter("peer.memo.doc.hit").Value(); got != st.MemoDocHits {
			t.Fatalf("seed %d: status reports %d document hits, the registry %d", seed, st.MemoDocHits, got)
		}
		srv.Close()
		osrv.Close()
	}
}

func memoCounts(p *Peer) (hits, misses int64) {
	return p.memo.answerHit.Value(), p.memo.answerMiss.Value()
}

// An answer is dropped when a document it read grows, and only then; a
// hit still counts as a served invocation and carries the read set.
func TestMemoAnswerDropsOnlyWhatItRead(t *testing.T) {
	p := mustOpen("memo", memoSystem(t))
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	lookup := Envelope{Service: "Lookup"}
	step := func(what string, wantHits, wantMisses int64) {
		t.Helper()
		servedEqualsFresh(t, p, srv.URL, nil, what)
		_, hdr := invokeRaw(t, srv.URL, lookup)
		if got := hdr.Get(headerReads); got != "store" {
			t.Fatalf("%s: %s %q", what, headerReads, got)
		}
		if h, m := memoCounts(p); h != wantHits || m != wantMisses {
			t.Fatalf("%s: %d hits, %d misses; want %d, %d", what, h, m, wantHits, wantMisses)
		}
	}
	step("first", 0, 1)
	step("again", 1, 1)
	p.System(func(s *core.System) {
		if _, err := s.Append("inbox", s.Document("inbox").Root, tree.Forest{
			tree.NewLabel("got", tree.NewLabel("key", tree.NewValue("k")))}); err != nil {
			t.Fatal(err)
		}
	})
	step("after a growth it did not read", 2, 1)
	p.System(func(s *core.System) {
		if _, err := s.Append("store", s.Document("store").Root, tree.Forest{
			tree.NewLabel("item", tree.NewLabel("id", tree.NewValue("c")))}); err != nil {
			t.Fatal(err)
		}
	})
	step("after a growth it read", 2, 2)
	forest, _ := p.Serve(context.Background(), lookup)
	if got, _ := invokeRaw(t, srv.URL, lookup); !bytes.Equal(got, mustForest(t, forest)) || len(forest) != 3 {
		t.Fatalf("answer after the growth: %s", got)
	}
	if got := p.Stats().Served; got != 5+1 { // five invokes and one Serve
		t.Fatalf("served %d, want 6", got)
	}

	// An answer that read a document as absent drops when it appears.
	inbox := Envelope{Service: "Inbox"}
	if got, _ := invokeRaw(t, srv.URL, inbox); !bytes.Equal(got, mustForest(t, nil)) {
		t.Fatalf("Inbox before late exists: %s", got)
	}
	invokeRaw(t, srv.URL, inbox)
	p.System(func(s *core.System) {
		if err := s.AddDocument(tree.NewDocument("late", syntax.MustParseDocument(`late{ok}`))); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := invokeRaw(t, srv.URL, inbox); bytes.Equal(got, mustForest(t, nil)) {
		t.Fatalf("Inbox after late appeared still answers %s", got)
	}
}

func mustForest(t testing.TB, f tree.Forest) []byte {
	t.Helper()
	data, err := MarshalForest(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Only a declarative service's successful answer is kept: a black box, an
// unknown service and a failing declarative service on a Degrade peer
// leave the memo empty, and the service answers once it recovers.
func TestMemoKeepsOnlyDeclarativeAnswers(t *testing.T) {
	s := memoSystem(t)
	calls := 0
	if err := s.AddService(&core.GoService{Name: "Clock", Fn: func(context.Context, core.Binding) (tree.Forest, error) {
		calls++
		return tree.Forest{tree.NewLabel("tick", tree.NewValue(strconv.Itoa(calls)))}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	q := syntax.MustParseQuery(`hit{$v} :- store/store{item{id{$v}}}`)
	q.Name = "Flaky"
	qs, err := core.NewQueryService(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(&faults.FaultService{Service: qs, FailFirst: 1}); err != nil {
		t.Fatal(err)
	}
	p := mustOpen("memo", s, WithErrorPolicy(core.Degrade))
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	kept := func() int {
		p.memo.mu.Lock()
		defer p.memo.mu.Unlock()
		return len(p.memo.answers)
	}
	for i := 1; i <= 2; i++ {
		got, hdr := invokeRaw(t, srv.URL, Envelope{Service: "Clock"})
		if want := fmt.Sprintf(`<ax:forest><tick><ax:value>%d</ax:value></tick></ax:forest>`, i); string(got) != want || hdr.Values(headerReads) != nil {
			t.Fatalf("black box answer %d: %s (%v)", i, got, hdr.Values(headerReads))
		}
	}
	for _, svc := range []string{"Nope", "Flaky"} {
		body, _ := MarshalEnvelope(Envelope{Service: svc})
		resp, err := http.Post(srv.URL+PathInvoke, "application/xml", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("%s: %s", svc, resp.Status)
		}
	}
	if n := kept(); n != 0 {
		t.Fatalf("%d answers kept after a black box and two failures", n)
	}
	invokeRaw(t, srv.URL, Envelope{Service: "Flaky"})
	invokeRaw(t, srv.URL, Envelope{Service: "Flaky"})
	if h, m := memoCounts(p); kept() != 1 || h != 1 || m != 5 {
		t.Fatalf("after the recovered service: %d kept, %d hits, %d misses", kept(), h, m)
	}
}

// blockingService holds a declarative evaluation until released while
// hold is set: the window in which a growth queues for the write side.
type blockingService struct {
	core.Service
	hold             atomic.Bool
	entered, release chan struct{}
}

func (b *blockingService) Unwrap() core.Service { return b.Service }

func (b *blockingService) Invoke(ctx context.Context, bd core.Binding) (tree.Forest, error) {
	if b.hold.Load() {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.Service.Invoke(ctx, bd)
}

// A fill that a growth raced is discarded: an answer looked up before a
// drop is not kept after it, whether the drop lands between the lookup
// and the fill by hand, or behind an evaluation held open while the
// growth queues for the write side.
func TestMemoDiscardsRacingFill(t *testing.T) {
	p := mustOpen("memo", memoSystem(t))
	body, _ := MarshalEnvelope(Envelope{Service: "Lookup"})
	_, key, gen, hit := p.memo.answer(body)
	forest, err := p.Serve(context.Background(), Envelope{Service: "Lookup"})
	if err != nil || hit {
		t.Fatal(err, hit)
	}
	p.System(func(s *core.System) {
		_, err = s.Append("store", s.Document("store").Root, tree.Forest{
			tree.NewLabel("item", tree.NewLabel("id", tree.NewValue("c")))})
	})
	if err != nil {
		t.Fatal(err)
	}
	p.memo.keep(key, gen, answer{body, mustForest(t, forest), "store"})
	if _, _, _, hit := p.memo.answer(body); hit {
		t.Fatal("a fill raced by a growth of what it read was kept")
	}

	s := memoSystem(t)
	q := syntax.MustParseQuery(`hit{$v} :- store/store{item{id{$v}}}`)
	q.Name = "Held"
	qs, _ := core.NewQueryService(q)
	held := &blockingService{Service: qs, entered: make(chan struct{}), release: make(chan struct{})}
	if err := s.AddService(held); err != nil {
		t.Fatal(err)
	}
	p = mustOpen("memo", s)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	env := Envelope{Service: "Held"}
	heldBody := invokeBody(t, env)
	grow := func(id string) {
		p.System(func(s *core.System) {
			s.Append("store", s.Document("store").Root, tree.Forest{
				tree.NewLabel("item", tree.NewLabel("id", tree.NewValue(id)))})
		})
	}
	for round := 0; round < 30; round++ {
		grow(fmt.Sprint("q", round)) // the held invoke misses
		var wg sync.WaitGroup
		wg.Add(2)
		held.hold.Store(true)
		go func() {
			defer wg.Done()
			if _, _, err := fetch(http.MethodPost, srv.URL+PathInvoke, heldBody); err != nil {
				t.Error(err)
			}
		}()
		<-held.entered
		held.hold.Store(false)
		_, waits := p.system.LockContention()
		go func() { defer wg.Done(); grow(fmt.Sprint("r", round)) }()
		for _, w := p.system.LockContention(); w == waits; _, w = p.system.LockContention() {
			runtime.Gosched() // the growth queues behind the held evaluation
		}
		held.release <- struct{}{}
		wg.Wait()
		// The next answer is the grown store's, never a kept stale one.
		got, _ := invokeRaw(t, srv.URL, env)
		forest, _ := p.Serve(context.Background(), env)
		if want := mustForest(t, forest); !bytes.Equal(got, want) {
			t.Fatalf("round %d: served\n%s\nfresh\n%s", round, got, want)
		}
	}
}

// Readers, invokes and pushes share one peer (run it under -race): every
// served byte comes from the memo's one lock, and once they stop the
// memo serves the live state.
func TestMemoConcurrentReadersInvokesPushes(t *testing.T) {
	p := mustOpen("memo", memoSystem(t))
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	push := subscribe(t, p, "in", "inbox")
	var bodies [][]byte
	for _, env := range memoEnvelopes {
		bodies = append(bodies, invokeBody(t, env))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var err error
				switch (w + i) % 4 {
				case 0:
					_, _, err = fetch(http.MethodGet, srv.URL+PathDoc+"inbox", nil)
				case 1:
					_, _, err = fetch(http.MethodGet, srv.URL+PathDelta+"store", nil)
				case 2:
					_, _, err = fetch(http.MethodPost, srv.URL+PathInvoke, bodies[i%len(bodies)])
				default:
					if err = push(tree.NewLabel("got", tree.NewLabel("key", tree.NewValue(fmt.Sprint(w, "-", i))))); err == nil {
						p.System(func(s *core.System) {
							_, err = s.Append("store", s.Document("store").Root, tree.Forest{
								tree.NewLabel("item", tree.NewLabel("id", tree.NewValue(fmt.Sprint(w, "-", i))))})
						})
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	servedEqualsFresh(t, p, srv.URL, memoEnvelopes, "after the concurrent rounds")
}

// Snapshots written after states were served from the memo are still the
// full encoder's payload, and a reorder by hand after a served read is
// encoded anew; afterwards the memo holds each document's slice of the
// payload, one copy of each.
func TestMemoSnapshotAfterServedStates(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	p, _, err := Open("snap", core.MustParseSystem(snapSeed),
		WithDurability(Durability{Dir: dir, SnapshotEvery: -1}), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	grow := func(doc string, i int) {
		p.System(func(s *core.System) {
			_, err = s.Append(doc, s.Document(doc).Root, tree.Forest{tree.NewLabel("entry", tree.NewValue(fmt.Sprint(i)))})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		grow([]string{"a", "b", "c"}[i%3], i)
	}
	servedEqualsFresh(t, p, srv.URL, nil, "before the first snapshot")
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, p, dir, "states served before")
	if got := reg.Counter("journal.snapshot_docs_reused").Value(); got != 5 {
		t.Fatalf("first snapshot reused %d served documents, want 5", got)
	}
	p.System(func(s *core.System) {
		slices.Reverse(s.Document("a").Root.Children)
		s.Touch("a")
	})
	grow("b", 9)
	servedEqualsFresh(t, p, srv.URL, nil, "after the reorder")
	p.System(func(s *core.System) {
		slices.Reverse(s.Document("c").Root.Children)
		s.Touch("c")
	})
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, p, dir, "after reorders")
	if enc := reg.Counter("journal.snapshot_docs_encoded").Value(); enc != 1 {
		t.Fatalf("%d documents encoded by the snapshots, want 1 (c, reordered unserved)", enc)
	}
	servedEqualsFresh(t, p, srv.URL, nil, "after the second snapshot")
	p.memo.mu.Lock()
	for name, data := range p.memo.docs {
		if !bytes.Equal(data, liveDoc(t, p, name)) || cap(data) != len(data) {
			t.Errorf("memo keeps %s as %d bytes (cap %d), not its state", name, len(data), cap(data))
		}
	}
	p.memo.mu.Unlock()
}

func liveDoc(t *testing.T, p *Peer, name string) (data []byte) {
	t.Helper()
	var err error
	p.system.View(func() { data, err = MarshalTree(p.system.Document(name).Root) })
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// BenchmarkServe measures one served read through the client: a document
// (doc) and a declarative answer (invoke), both memo hits after the first.
func BenchmarkServe(b *testing.B) {
	var src bytes.Buffer
	src.WriteString("doc d00 = store{")
	for i := 0; i < 64; i++ {
		if i > 0 {
			src.WriteByte(',')
		}
		fmt.Fprintf(&src, `item{id{"i%d"},val{"v%d"}}`, i, i)
	}
	src.WriteString("}\nfunc Lookup = hit{id{$k},val{$v}} :- d00/store{item{id{$k},val{$v}}}\n")
	p := mustOpen("bench", core.MustParseSystem(src.String()))
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	ctx := context.Background()
	b.Run("doc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Doc(ctx, "d00"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("invoke", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Invoke(ctx, Envelope{Service: "Lookup"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
