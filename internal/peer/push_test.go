package peer

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/core"
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
// every tree among those sent and pushes nothing.
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
// state answers 409 to the next digest-anchored delta, and the publisher
// re-pushes the full accumulated forest — converging the fresh replica
// to everything ever published.
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

	// Crash: a fresh subscriber (empty portal, empty delivery chain)
	// takes over the same URL. The publisher does not know.
	sb2, subPeer2 := newPortalSubscriber(t, "s1")
	cur.Store(sb2.Handler())

	// New data appears; the anchored delta must be rejected and the full
	// forest re-pushed.
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

	// Steady state resumes: the next delta delivers without conflict.
	growDoc(pubPeer, "db", `e{t{"c"},s{"3"}}`)
	conflictsBefore := reg.Counter("peer.push.conflicts").Value()
	if _, err := pub.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("peer.push.conflicts").Value() != conflictsBefore {
		t.Fatal("steady-state delta conflicted")
	}
	want = syntax.MustParseDocument(`portal{got{"a","1"},got{"b","2"},got{"c","3"}}`)
	if got := portalTree(subPeer2); !tree.Isomorphic(got, want) {
		t.Fatalf("portal %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
}

// TestPushDuplicateDeliveryRejected: replaying an already-accepted
// delivery (same bytes, same anchor) is refused by the chain check and
// repaired by a full re-push — the at-least-once wire contract.
func TestPushDuplicateDelivery(t *testing.T) {
	pub, _ := newListPublisher(t, nil)
	sb, subPeer := newPortalSubscriber(t, "s1")
	srv := httptest.NewServer(sb.Handler())
	defer srv.Close()
	pub.Subscribe("s1", Envelope{Service: "List"}, srv.URL)
	if _, err := pub.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Replay the same delivery out of band: anchor "" no longer matches
	// the subscriber's advanced chain → 409, no double-append.
	data, err := MarshalForest(tree.Forest{syntax.MustParseDocument(`got{"a","1"}`)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+PathPush+"s1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerPushMode, "delta")
	req.Header.Set(headerPushAnchor, "")
	req.Header.Set(headerPushAck, chainDigest("", data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replayed delivery answered %d", resp.StatusCode)
	}
	want := syntax.MustParseDocument(`portal{got{"a","1"}}`)
	if got := portalTree(subPeer); !tree.Isomorphic(got, want) {
		t.Fatalf("portal %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
}

// TestPushThatCannotApplyIsNotAcknowledged: a delivery whose attachment
// node is not in the document — here a node the document never held —
// or whose document does not exist must be refused: no 200, no chain
// advance, nothing counted as delivered, and not a 409 (re-pushing
// everything would not help). Once the subscription is registered on a
// live node, the publisher's retained trees arrive. The first full sync
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
	chain := sb.chains["s1"]
	sb.mu.Unlock()
	if chain != "" {
		t.Fatalf("a refused delivery advanced the chain to %q", chain)
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

	// Registered on the live root, the trees the publisher still holds as
	// unsent are delivered on the next flush.
	sb.Register("s1", "replica", root)
	if pushed, err := pub.Flush(context.Background()); err != nil || pushed != 1 {
		t.Fatalf("flush after re-registering: pushed=%d err=%v", pushed, err)
	}
	want := syntax.MustParseDocument(`db{e{t{"a"},s{"1"}},got{"a","1"}}`)
	if got := portalDoc(subPeer, "replica"); !tree.Isomorphic(got, want) {
		t.Fatalf("replica %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
}
