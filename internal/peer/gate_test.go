package peer

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"axml/internal/core"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// The remote sterile-call gate on a store + portal pair: the store holds
// edges and serves succ; the portal's succ calls go to the store, and its
// collect view gathers the hops.
const (
	gateStoreEdges = `doc edges = g{e{from{"a"},to{"b"}},e{from{"b"},to{"c"}}}
`
	gateStoreSucc = `func succ = next{$y} :- context/node{name{$x}}, edges/g{e{from{$x},to{$y}}}
`
	gatePortal = `doc portal = p{node{name{"a"},!succ},node{name{"b"},!succ},node{name{"c"},!succ}}
doc view = v{!collect}
func collect = hop{from{$x},to{$y}} :- portal/p{node{name{$x},next{$y}}}
`
)

// opaque hides a service's definition: the engine and the peer see a black
// box (no Unwrap), so its answers carry no read set.
type opaque struct{ core.Service }

type gateFleet struct {
	store, portal *Peer
	storeURL      string
	sub           *Subscriber
}

// newGateFleet starts the store (serving storeSvc as succ, plus a push
// subscription "in" appending to edges) and the portal bound to it.
func newGateFleet(t *testing.T, storeSvc core.Service) *gateFleet {
	t.Helper()
	storeSys := core.MustParseSystem(gateStoreEdges)
	if err := storeSys.AddService(storeSvc); err != nil {
		t.Fatal(err)
	}
	f := &gateFleet{store: mustOpen("store", storeSys)}
	f.sub = NewSubscriber(f.store)
	storeSys.View(func() { f.sub.Register("in", "edges", storeSys.Document("edges").Root) })
	mux := http.NewServeMux()
	mux.Handle("/", f.store.Handler())
	mux.Handle(PathPush, f.sub.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	f.storeURL = srv.URL

	spec, err := syntax.ParseSystem(gatePortal)
	if err != nil {
		t.Fatal(err)
	}
	portalSys := core.NewSystem()
	for _, d := range spec.Docs {
		if err := portalSys.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range spec.Funcs {
		if err := portalSys.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := portalSys.AddService(&RemoteService{Name: "succ", URL: srv.URL}); err != nil {
		t.Fatal(err)
	}
	f.portal = mustOpen("portal", portalSys)
	return f
}

func declarativeSucc() core.Service {
	return core.MustParseSystem(gateStoreEdges + gateStoreSucc).Service("succ")
}

// sweep runs one portal sweep and reports the calls it fired and skipped.
func (f *gateFleet) sweep(t *testing.T) (fired, sterile int) {
	t.Helper()
	before := f.portal.Stats()
	if _, err := f.portal.Sweep(); err != nil {
		t.Fatal(err)
	}
	after := f.portal.Stats()
	return after.CallsFired - before.CallsFired, after.CallsSterile - before.CallsSterile
}

// quiesce sweeps the portal until a sweep changes nothing.
func (f *gateFleet) quiesce(t *testing.T) {
	t.Helper()
	for i := 0; ; i++ {
		if i == 10 {
			t.Fatal("portal did not quiesce")
		}
		changed, err := f.portal.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			return
		}
	}
}

// portalState is the canonical form of the portal's two documents.
func portalState(p *Peer) (out string) {
	p.System(func(s *core.System) {
		out = s.Document("portal").Root.CanonicalString() + "/" + s.Document("view").Root.CanonicalString()
	})
	return out
}

// singleSite runs the same portal with a local succ over the given edges.
func singleSite(t *testing.T, edges string) string {
	t.Helper()
	s := core.MustParseSystem(edges + gateStoreSucc + gatePortal)
	if res := s.Run(core.RunOptions{Parallelism: 1}); !res.Terminated {
		t.Fatalf("single-site run: %+v", res)
	}
	return s.Document("portal").Root.CanonicalString() + "/" + s.Document("view").Root.CanonicalString()
}

// A store edit made through Peer.System and Touch moves the edges digest:
// the next portal sweep re-fires every succ call, the new hop appears and
// the portal equals a single-site run; the sweep after it fires exactly
// the call whose context grew. A sweep of an unchanged fleet fires nothing.
func TestRemoteGateRefiresOnTouchedStoreEdit(t *testing.T) {
	f := newGateFleet(t, declarativeSucc())
	f.quiesce(t)
	if fired, sterile := f.sweep(t); fired != 0 || sterile != 4 {
		t.Fatalf("sweep of an unchanged fleet: fired %d, sterile %d; want 0 and 4", fired, sterile)
	}
	if st := f.portal.Status(); st.CallsSterile < 4 || st.CallsFired != f.portal.Stats().CallsFired {
		t.Fatalf("status gate counters: %+v", st)
	}

	f.store.System(func(s *core.System) {
		s.Document("edges").Root.Add(syntax.MustParseDocument(`e{from{"c"},to{"a"}}`))
		s.Touch("edges")
	})
	if fired, _ := f.sweep(t); fired != 4 {
		t.Fatalf("round 1 after the edit fired %d calls; want the 3 succ calls and collect", fired)
	}
	if fired, sterile := f.sweep(t); fired != 1 || sterile != 3 {
		t.Fatalf("round 2 fired %d, sterile %d; want only c's succ (its context grew)", fired, sterile)
	}
	want := singleSite(t, `doc edges = g{e{from{"a"},to{"b"}},e{from{"b"},to{"c"}},e{from{"c"},to{"a"}}}
`)
	if got := portalState(f.portal); got != want {
		t.Fatalf("portal after the edit:\n%s\nwant the single-site run\n%s", got, want)
	}
}

// Growth that arrives through Append or a push moves the digest too.
func TestRemoteGateRefiresOnAppendAndPush(t *testing.T) {
	f := newGateFleet(t, declarativeSucc())
	f.quiesce(t)
	f.store.System(func(s *core.System) {
		edges := s.Document("edges")
		if _, err := s.Append("edges", edges.Root, tree.Forest{syntax.MustParseDocument(`e{from{"c"},to{"a"}}`)}); err != nil {
			t.Fatal(err)
		}
	})
	if fired, _ := f.sweep(t); fired == 0 {
		t.Fatal("an appended edge re-fired nothing")
	}
	f.quiesce(t)
	push := tree.Forest{syntax.MustParseDocument(`e{from{"a"},to{"c"}}`)}
	if err := NewClient(f.storeURL, nil).Push(context.Background(), "in", push); err != nil {
		t.Fatal(err)
	}
	if fired, _ := f.sweep(t); fired == 0 {
		t.Fatal("a pushed edge re-fired nothing")
	}
	f.quiesce(t)
	want := singleSite(t, `doc edges = g{e{from{"a"},to{"b"}},e{from{"b"},to{"c"}},e{from{"c"},to{"a"}},e{from{"a"},to{"c"}}}
`)
	if got := portalState(f.portal); got != want {
		t.Fatalf("portal:\n%s\nwant the single-site run\n%s", got, want)
	}
}

// A store service the store cannot see into answers without a read set:
// the portal's calls to it re-fire every sweep.
func TestRemoteGateBlackBoxRefiresEverySweep(t *testing.T) {
	f := newGateFleet(t, opaque{declarativeSucc()})
	f.quiesce(t)
	for i := 0; i < 2; i++ {
		if fired, sterile := f.sweep(t); fired != 3 || sterile != 1 {
			t.Fatalf("sweep %d: fired %d, sterile %d; want the 3 succ calls, collect sterile", i, fired, sterile)
		}
	}
}

// A remote that cannot be reached has no token, and the call fails as it
// always did.
func TestRemoteGateUnreachableRemote(t *testing.T) {
	storeSys := core.MustParseSystem(gateStoreEdges + gateStoreSucc)
	srv := httptest.NewServer(mustOpen("store", storeSys).Handler())
	rs := &RemoteService{Name: "succ", URL: srv.URL}
	ctx := context.Background()
	b := core.Binding{Input: tree.NewLabel(tree.Input), Context: syntax.MustParseDocument(`node{name{"a"}}`)}
	if rs.Version(ctx) != "" {
		t.Fatal("a token before any answer")
	}
	if _, err := rs.Invoke(ctx, b); err != nil {
		t.Fatal(err)
	}
	if rs.Version(ctx) == "" {
		t.Fatal("no token after a declarative answer")
	}
	srv.Close()
	if tok := rs.Version(ctx); tok != "" {
		t.Fatalf("token %q from an unreachable remote", tok)
	}
	if _, err := rs.Invoke(ctx, b); err == nil {
		t.Fatal("an unreachable remote answered")
	}
}

// A declarative service that reads no document beyond its envelope
// answers with an empty read set: its token needs no probe and still
// gates. A black box's answer carries no header at all.
func TestRemoteGateEmptyReadSet(t *testing.T) {
	storeSys := core.MustParseSystem(`func ping = pong :- context/node{name{$x}}
`)
	if err := storeSys.AddService(opaque{core.ConstService("box", tree.Forest{tree.NewLabel("boxed")})}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mustOpen("store", storeSys).Handler())
	defer srv.Close()
	for svc, want := range map[string][]string{"ping": {""}, "box": nil} {
		data, err := MarshalEnvelope(Envelope{Service: svc, Context: syntax.MustParseDocument(`node{name{"a"}}`)})
		if err != nil {
			t.Fatal(err)
		}
		_, hdr, err := NewClient(srv.URL, nil).call(context.Background(), "invoke", http.MethodPost, PathInvoke, "application/xml", data)
		if err != nil {
			t.Fatal(err)
		}
		if got := hdr.Values(headerReads); len(got) != len(want) || (len(want) > 0 && got[0] != want[0]) {
			t.Fatalf("%s: %s = %q, want %q", svc, headerReads, got, want)
		}
	}

	portalSys := core.NewSystem()
	if err := portalSys.AddService(&RemoteService{Name: "ping", URL: srv.URL}); err != nil {
		t.Fatal(err)
	}
	if err := portalSys.AddDocument(tree.NewDocument("portal", syntax.MustParseDocument(`p{node{name{"a"},!ping}}`))); err != nil {
		t.Fatal(err)
	}
	portal := mustOpen("portal", portalSys)
	f := &gateFleet{portal: portal}
	f.quiesce(t)
	if fired, sterile := f.sweep(t); fired != 0 || sterile != 1 {
		t.Fatalf("sweep after quiescence: fired %d, sterile %d; want 0 and 1", fired, sterile)
	}
}
