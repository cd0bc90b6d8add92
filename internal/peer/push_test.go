package peer

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/faults"
	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// newListPublisher builds a publisher whose List service enumerates a
// growable database, so successive flushes can have fresh trees to push.
func newListPublisher(t *testing.T, reg *obs.Registry) (*Publisher, *Peer) {
	t.Helper()
	sys := core.MustParseSystem(`
doc db = db{e{t{"a"},s{"1"}}}
func List = got{$t,$s} :- db/db{e{t{$t},s{$s}}}
`)
	var opts []Option
	if reg != nil {
		opts = append(opts, WithObservability(reg))
	}
	p, _, err := Open("pub", sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return NewPublisher(p), p
}

// newPortalSubscriber builds a subscriber with an empty portal document
// and registers the given subscription id at its root.
func newPortalSubscriber(t *testing.T, id string) (*Subscriber, *Peer) {
	t.Helper()
	subSys := core.MustParseSystem(`doc portal = portal`)
	subPeer := mustOpen("sub", subSys)
	sb := NewSubscriber(subPeer)
	var root *tree.Node
	subPeer.System(func(s *core.System) { root = s.Document("portal").Root })
	sb.Register(id, "portal", root)
	return sb, subPeer
}

func portalTree(p *Peer) *tree.Node { return portalDoc(p, "portal") }

func portalDoc(p *Peer, doc string) *tree.Node {
	var out *tree.Node
	p.System(func(s *core.System) { out = s.Document(doc).Root.Copy() })
	return out
}

// TestPushRetriesTransientFailures: a delivery that fails with 502 a few
// times must be retried with backoff and succeed, without surfacing an
// error to the caller.
func TestPushRetriesTransientFailures(t *testing.T) {
	reg := obs.NewRegistry()
	pub, _ := newListPublisher(t, reg)
	sb, subPeer := newPortalSubscriber(t, "s1")

	var failures atomic.Int32
	failures.Store(2)
	inner := sb.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			http.Error(w, "injected", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	pub.Subscribe("s1", Envelope{Service: "List"}, srv.URL)
	pub.Retries = 3
	pub.RetryBase = time.Millisecond
	var slept int
	pub.Sleep = func(time.Duration) { slept++ }

	pushed, err := pub.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 1 {
		t.Fatalf("pushed = %d", pushed)
	}
	if slept != 2 {
		t.Fatalf("slept %d times, want 2", slept)
	}
	if len(pub.Failures()) != 0 {
		t.Fatalf("failures recorded for recovered delivery: %v", pub.Failures())
	}
	want := syntax.MustParseDocument(`portal{got{"a","1"}}`)
	if got := portalTree(subPeer); !tree.Isomorphic(got, want) {
		t.Fatalf("portal %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
}

// TestPushDeadSubscriberDoesNotStarveOthers: one unreachable callback
// exhausts its retries, is recorded, and the remaining subscriptions
// still deliver in the same flush.
func TestPushDeadSubscriberDoesNotStarveOthers(t *testing.T) {
	reg := obs.NewRegistry()
	pub, _ := newListPublisher(t, reg)
	sb, subPeer := newPortalSubscriber(t, "alive")
	srv := httptest.NewServer(sb.Handler())
	defer srv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // immediately: connections will be refused

	pub.Subscribe("dead", Envelope{Service: "List"}, dead.URL)
	pub.Subscribe("alive", Envelope{Service: "List"}, srv.URL)
	pub.Retries = 1
	pub.RetryBase = time.Millisecond
	pub.Sleep = func(time.Duration) {}

	pushed, err := pub.Flush(context.Background())
	if err == nil {
		t.Fatal("dead subscriber did not surface an error")
	}
	if pushed != 1 {
		t.Fatalf("pushed = %d, want the live subscriber's tree", pushed)
	}
	if pub.Failures()["dead"] != 1 {
		t.Fatalf("failures: %v", pub.Failures())
	}
	if reg.Counter("peer.push.fail.dead").Value() != 1 {
		t.Fatal("per-subscriber failure counter not recorded")
	}
	if got := portalTree(subPeer); len(got.Children) != 1 {
		t.Fatalf("live subscriber missed its delivery: %s", got.CanonicalString())
	}
}

// TestPushUnchangedForestPushesNothing: a subscription whose service
// re-serves the same 200 trees delivers them once; the second flush finds
// every tree in the subscription's view and pushes nothing.
func TestPushUnchangedForestPushesNothing(t *testing.T) {
	var db strings.Builder
	db.WriteString(`doc db = db{`)
	for i := 0; i < 200; i++ {
		if i > 0 {
			db.WriteString(",")
		}
		fmt.Fprintf(&db, `e{t{"%d"},s{"s%d"}}`, i, i%7)
	}
	db.WriteString("}\nfunc List = got{$t,$s} :- db/db{e{t{$t},s{$s}}}\n")
	reg := obs.NewRegistry()
	p, _, err := Open("pub", core.MustParseSystem(db.String()), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(p)
	sb, subPeer := newPortalSubscriber(t, "s1")
	srv := httptest.NewServer(sb.Handler())
	defer srv.Close()
	pub.Subscribe("s1", Envelope{Service: "List"}, srv.URL)

	for flush, want := range []int64{200, 200} {
		if _, err := pub.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("peer.push.pushed").Value(); got != want {
			t.Fatalf("flush %d: peer.push.pushed = %d, want %d", flush, got, want)
		}
	}
	if got := portalTree(subPeer); len(got.Children) != 200 {
		t.Fatalf("subscriber holds %d trees, want 200", len(got.Children))
	}
}

// TestPushRenegotiatesAfterSubscriberRestart: a subscriber that lost its
// state answers 409 to the next delivery anchored at the view it had
// acknowledged, and the publisher pushes its whole view — converging the
// fresh replica to everything ever published.
func TestPushRenegotiatesAfterSubscriberRestart(t *testing.T) {
	reg := obs.NewRegistry()
	pub, pubPeer := newListPublisher(t, reg)

	// The subscriber sits behind a stable URL whose handler can be
	// swapped — the crash-restart leaves the address unchanged.
	var cur atomic.Value // http.Handler
	sb1, _ := newPortalSubscriber(t, "s1")
	cur.Store(sb1.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	pub.Subscribe("s1", Envelope{Service: "List"}, srv.URL)
	pub.Sleep = func(time.Duration) {}
	if _, err := pub.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Crash: a fresh subscriber (empty portal, no acknowledged view)
	// takes over the same URL. The publisher does not know.
	sb2, subPeer2 := newPortalSubscriber(t, "s1")
	cur.Store(sb2.Handler())

	// New data appears; the anchored delivery must be rejected and the
	// whole view pushed.
	growDoc(pubPeer, "db", `e{t{"b"},s{"2"}}`)
	pushed, err := pub.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pushed == 0 {
		t.Fatal("nothing pushed after growth")
	}
	if reg.Counter("peer.push.conflicts").Value() == 0 {
		t.Fatal("restart did not surface as a push conflict")
	}
	want := syntax.MustParseDocument(`portal{got{"a","1"},got{"b","2"}}`)
	if got := portalTree(subPeer2); !tree.Isomorphic(got, want) {
		t.Fatalf("restarted portal %s, want %s", got.CanonicalString(), want.CanonicalString())
	}

	// Steady state resumes: the next anchored delivery applies without
	// conflict.
	growDoc(pubPeer, "db", `e{t{"c"},s{"3"}}`)
	conflictsBefore := reg.Counter("peer.push.conflicts").Value()
	if _, err := pub.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("peer.push.conflicts").Value() != conflictsBefore {
		t.Fatal("steady-state anchored delivery conflicted")
	}
	want = syntax.MustParseDocument(`portal{got{"a","1"},got{"b","2"},got{"c","3"}}`)
	if got := portalTree(subPeer2); !tree.Isomorphic(got, want) {
		t.Fatalf("portal %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
}

// TestPushDuplicateDelivery: a delivery replayed after the subscriber
// moved on is anchored at a view it no longer holds, so it answers 409
// and appends nothing; the same trees replayed without an anchor are
// accepted and change nothing — the at-least-once wire contract.
func TestPushDuplicateDelivery(t *testing.T) {
	reg := obs.NewRegistry()
	pub, pubPeer := newListPublisher(t, nil)
	subPeer := mustOpen("sub", core.MustParseSystem(`doc portal = portal`), WithObservability(reg))
	sb := NewSubscriber(subPeer)
	subPeer.System(func(s *core.System) { sb.Register("s1", "portal", s.Document("portal").Root) })
	type delivery struct {
		hdr  http.Header
		body []byte
	}
	var mu sync.Mutex
	var seen []delivery
	inner := sb.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen = append(seen, delivery{r.Header.Clone(), body})
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	pub.Subscribe("s1", Envelope{Service: "List"}, srv.URL)
	if _, err := pub.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	growDoc(pubPeer, "db", `e{t{"b"},s{"2"}}`)
	if _, err := pub.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	d := append([]delivery(nil), seen...)
	mu.Unlock()
	if len(d) != 2 || d[0].hdr.Get(headerPushAnchor) != "" || d[1].hdr.Get(headerPushAnchor) != d[0].hdr.Get(headerPushAck) {
		t.Fatalf("want a whole view, then a delivery anchored at it: %v", d)
	}
	want := syntax.MustParseDocument(`portal{got{"a","1"},got{"b","2"}}`)

	replay := func(hdr ...string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+PathPush+"s1", bytes.NewReader(d[1].body))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := portalTree(subPeer); !tree.Isomorphic(got, want) {
			t.Fatalf("portal %s after a replay, want %s", got.CanonicalString(), want.CanonicalString())
		}
		return resp.StatusCode
	}
	// The subscriber holds the second delivery's view, not its anchor.
	if code := replay(headerPushAnchor, d[1].hdr.Get(headerPushAnchor), headerPushAck, d[1].hdr.Get(headerPushAck)); code != http.StatusConflict {
		t.Fatalf("anchored replay answered %d, want 409", code)
	}
	if reg.Counter("peer.push.rejected").Value() != 1 {
		t.Fatal("the refused replay was not counted as peer.push.rejected")
	}
	delivered := reg.Counter("peer.push.delivered").Value()
	if code := replay(headerPushAck, d[1].hdr.Get(headerPushAck)); code != http.StatusOK {
		t.Fatalf("anchorless replay answered %d", code)
	}
	if reg.Counter("peer.push.delivered").Value() == delivered {
		t.Fatal("the anchorless replay was not accepted")
	}
}

// TestPushThatCannotApplyIsNotAcknowledged: a delivery whose attachment
// node is not in the document — here a node the document never held —
// or whose document does not exist must be refused: no 200, no view
// acknowledged on either side, nothing counted as delivered, and not a
// 409 (sending the whole view would not help). Once the subscription is
// registered on a live node, the publisher's whole view arrives. The first full sync
// adopts the remote root marking on the replica seed's root node itself.
func TestPushThatCannotApplyIsNotAcknowledged(t *testing.T) {
	pub, pubPeer := newListPublisher(t, nil)
	pub.Sleep = func(time.Duration) {}
	pubSrv := httptest.NewServer(pubPeer.Handler())
	defer pubSrv.Close()

	reg := obs.NewRegistry()
	subSys := core.NewSystem()
	if err := subSys.AddDocument(NewReplicaDoc("replica", "guess")); err != nil {
		t.Fatal(err)
	}
	subPeer, _, err := Open("sub", subSys, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	sb := NewSubscriber(subPeer)
	var seed *tree.Node
	subPeer.System(func(s *core.System) { seed = s.Document("replica").Root })
	sb.Register("s1", "replica", tree.NewLabel("guess"))
	sb.Register("s2", "nodoc", seed)
	srv := httptest.NewServer(sb.Handler())
	defer srv.Close()

	m := &Mirror{Remote: pubSrv.URL, RemoteDoc: "db", LocalDoc: "replica"}
	if changed, err := m.Sync(context.Background(), subPeer); err != nil || !changed {
		t.Fatalf("full sync: changed=%v err=%v", changed, err)
	}
	var root *tree.Node
	subPeer.System(func(s *core.System) { root = s.Document("replica").Root })
	if root != seed || root.Name != "db" {
		t.Fatalf("the sync did not adopt the remote root on the seed node: %s", root.CanonicalString())
	}
	synced := root.CanonicalString()

	pub.Subscribe("s1", Envelope{Service: "List"}, srv.URL)
	if pushed, err := pub.Flush(context.Background()); err == nil || pushed != 0 {
		t.Fatalf("a push onto a detached node was acknowledged: pushed=%d err=%v", pushed, err)
	}
	if got := reg.Counter("peer.push.delivered").Value(); got != 0 {
		t.Fatalf("peer.push.delivered = %d for deliveries that were refused", got)
	}
	if reg.Counter("peer.push.rejected").Value() == 0 {
		t.Fatal("the refusal was not counted as peer.push.rejected")
	}
	sb.mu.Lock()
	view := sb.targets["s1"].view
	sb.mu.Unlock()
	if view != "" || pub.subs[0].acked != "" {
		t.Fatalf("a refused delivery was acknowledged: subscriber %q, publisher %q", view, pub.subs[0].acked)
	}
	if got := root.CanonicalString(); got != synced {
		t.Fatalf("a refused delivery changed the document: %s", got)
	}

	// A registered id whose document does not exist: refused, and not
	// with the renegotiation status.
	data, err := MarshalForest(tree.Forest{syntax.MustParseDocument(`got{"a","1"}`)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+PathPush+"s2", "application/xml", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 300 || resp.StatusCode == http.StatusConflict {
		t.Fatalf("a push into a missing document answered %d", resp.StatusCode)
	}

	// Registered on the live root, the publisher's view — never
	// acknowledged — is delivered whole on the next flush.
	sb.Register("s1", "replica", root)
	if pushed, err := pub.Flush(context.Background()); err != nil || pushed != 1 {
		t.Fatalf("flush after re-registering: pushed=%d err=%v", pushed, err)
	}
	want := syntax.MustParseDocument(`db{e{t{"a"},s{"1"}},got{"a","1"}}`)
	if got := portalDoc(subPeer, "replica"); !tree.Isomorphic(got, want) {
		t.Fatalf("replica %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
}

// TestPublisherConcurrentFlush: overlapping Flushes run one
// subscription's deliveries one at a time, so its view and acknowledged
// digest are never written by two at once: the second Flush of a round
// finds nothing to send, no delivery conflicts, and the subscriber ends
// with every answer.
func TestPublisherConcurrentFlush(t *testing.T) {
	reg := obs.NewRegistry()
	pub, pubPeer := newListPublisher(t, reg)
	sb, subPeer := newPortalSubscriber(t, "s1")
	srv := httptest.NewServer(sb.Handler())
	defer srv.Close()
	pub.Subscribe("s1", Envelope{Service: "List"}, srv.URL)
	for round := 0; round < 20; round++ {
		growDoc(pubPeer, "db", fmt.Sprintf(`e{t{"r%d"},s{"%d"}}`, round, round))
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = pub.Flush(context.Background())
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if n := reg.Counter("peer.push.conflicts").Value(); n != 0 {
		t.Fatalf("%d deliveries conflicted", n)
	}
	if got := reg.Counter("peer.push.pushed").Value(); got != 21 {
		t.Fatalf("peer.push.pushed = %d, want each of the 21 answers once", got)
	}
	if got := portalTree(subPeer); len(got.Children) != 21 {
		t.Fatalf("subscriber holds %d trees, want 21", len(got.Children))
	}
}

// TestAnchoredPushMatchesOneFullPush is the differential of anchored
// push: a subscriber fed by a seeded sequence of growth and flushes —
// growth that extends an earlier answer (got{e{"a"}}, then
// got{e{"a","1"}}), flushes whose deliveries all fail until the retries
// run out, failures the retries absorb, and one restart behind a stable
// URL — holds, after a final quiet flush, exactly the document of a fresh
// subscriber pushed the publisher's final answer once.
func TestAnchoredPushMatchesOneFullPush(t *testing.T) {
	ctx := context.Background()
	var conflicts, failed int64
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := obs.NewRegistry()
		pubPeer := mustOpen("pub", core.MustParseSystem(`
doc db = db{e{"a"}}
func Feed = got{#X} :- db/db{#X}
`), WithObservability(reg))
		pub := NewPublisher(pubPeer)
		pub.Retries = 1
		pub.Sleep = func(time.Duration) {}
		env := Envelope{Service: "Feed"}

		// The subscriber sits behind a stable URL, reached directly, through
		// a handler failing every request, or through one failing every
		// second request.
		var live, down, flaky http.Handler
		var subPeer *Peer
		start := func() {
			var sb *Subscriber
			sb, subPeer = newPortalSubscriber(t, "s1")
			live = sb.Handler()
			down, flaky = faults.FlakyHandler(live, 1), faults.FlakyHandler(live, 2)
		}
		start()
		var cur atomic.Pointer[http.Handler]
		route := func(h http.Handler) { cur.Store(&h) }
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*cur.Load()).ServeHTTP(w, r)
		}))
		pub.Subscribe("s1", env, srv.URL)

		grow := func(round int) {
			pubPeer.System(func(s *core.System) {
				root := s.Document("db").Root
				at, add := root, tree.NewLabel("e", tree.NewValue(fmt.Sprint("v", rng.Intn(6))))
				if round == 0 || rng.Intn(2) == 0 {
					// Extend an entry: its answer subsumes the one before.
					at, add = root.Children[rng.Intn(len(root.Children))], tree.NewValue(fmt.Sprint(rng.Intn(4)))
					if round == 0 {
						add = tree.NewValue("1")
					}
				}
				if _, err := s.Append("db", at, tree.Forest{add}); err != nil {
					t.Fatal(err)
				}
			})
		}
		restartAt := 5 + rng.Intn(15)
		const rounds = 25
		for round := 0; round < rounds; round++ {
			if round == restartAt {
				start()
			}
			if round == rounds-1 {
				// The last growth is new and its delivery fails: only the
				// quiet flush below can still bring it.
				pubPeer.System(func(s *core.System) {
					if _, err := s.Append("db", s.Document("db").Root, tree.Forest{tree.NewLabel("last")}); err != nil {
						t.Fatal(err)
					}
				})
				route(down)
			} else {
				if rng.Intn(3) > 0 {
					grow(round)
				}
				route([]http.Handler{live, down, flaky}[rng.Intn(3)])
			}
			if _, err := pub.Flush(ctx); err != nil {
				failed++
			}
		}
		route(live)
		if _, err := pub.Flush(ctx); err != nil {
			t.Fatalf("seed %d: quiet flush: %v", seed, err)
		}
		srv.Close()

		sbRef, refPeer := newPortalSubscriber(t, "s1")
		refSrv := httptest.NewServer(sbRef.Handler())
		final, err := pubPeer.Serve(ctx, env)
		if err == nil {
			err = NewClient(refSrv.URL, nil).Push(ctx, "s1", final)
		}
		refSrv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := docHash(subPeer, "portal"), docHash(refPeer, "portal"); got != want {
			t.Fatalf("seed %d: anchored pushes reached %s, one full push %s:\n%s\n%s", seed, got, want,
				portalTree(subPeer).CanonicalString(), portalTree(refPeer).CanonicalString())
		}
		conflicts += reg.Counter("peer.push.conflicts").Value()
	}
	if conflicts == 0 || failed == 0 {
		t.Fatalf("the sequences never exercised a path: %d conflicts, %d failed flushes", conflicts, failed)
	}
}
