package peer

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"axml/internal/core"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// forestServer answers every request with a well-formed forest of about
// 7·kib KiB.
func forestServer(t *testing.T, kib int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/xml")
		io.WriteString(w, "<ax:forest><a>")
		filler := strings.Repeat("<b></b>", 1024)
		for i := 0; i < kib; i++ {
			if _, err := io.WriteString(w, filler); err != nil {
				return
			}
		}
		io.WriteString(w, "</a></ax:forest>")
	}))
	t.Cleanup(srv.Close)
	return srv
}

// hugeBodyServer answers every request with a body over MaxWireBytes.
func hugeBodyServer(t *testing.T) *httptest.Server { return forestServer(t, 1280) }

func TestRemoteInvokeRejectsOversizedResponse(t *testing.T) {
	in := core.Binding{Input: tree.NewLabel(tree.Input)}
	rs := &RemoteService{Name: "f", URL: hugeBodyServer(t).URL}
	if _, err := rs.Invoke(context.Background(), in); !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("want ErrResponseTooLarge, got %v", err)
	}

	// A per-service cap overrides the package default: the same 63 KiB
	// answer passes under MaxWireBytes and fails under MaxBytes, naming it.
	rs = &RemoteService{Name: "f", URL: forestServer(t, 9).URL}
	if _, err := rs.Invoke(context.Background(), in); err != nil {
		t.Fatalf("under the package default: %v", err)
	}
	rs.MaxBytes = 2048
	_, err := rs.Invoke(context.Background(), in)
	if !errors.Is(err, ErrResponseTooLarge) || !strings.Contains(err.Error(), "cap 2048 bytes") {
		t.Fatalf("per-service cap: want ErrResponseTooLarge (cap 2048 bytes), got %v", err)
	}
}

func TestFetchDocRejectsOversizedResponse(t *testing.T) {
	srv := hugeBodyServer(t)
	_, err := (&Client{BaseURL: srv.URL, MaxWire: 4096}).Doc(context.Background(), "anything")
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("want ErrResponseTooLarge, got %v", err)
	}
}

func TestHandleInvokeStatusCodes(t *testing.T) {
	srv := httptest.NewServer(newRatingsPeer(t, WithLimits(1024)).Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+PathInvoke, "application/xml", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A body that fails UnmarshalEnvelope is the caller's bug: 400, with
	// the parse error echoed so client bugs and journal-replay bugs are
	// distinguishable from server faults.
	for _, bad := range []string{
		"not xml at all",
		"<ax:envelope></ax:envelope>",
		"<wrong/>",
		"",
	} {
		resp := post(bad)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
		if !strings.Contains(string(msg), "bad") {
			t.Errorf("body %q: parse error not echoed: %q", bad, msg)
		}
	}

	// A valid envelope for a service the peer does not have stays a
	// server-side failure (502), not a client error.
	env, err := MarshalEnvelope(Envelope{Service: "NoSuchService"})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(string(env))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unknown service: status %d, want 502", resp.StatusCode)
	}

	// An oversized request body is 413, cut off at the cap.
	resp = post("<ax:envelope>" + strings.Repeat("<x></x>", 1024))
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%q), want 413", resp.StatusCode, msg)
	}
}

// TestHandlePushHonoursWithLimits: the push endpoint reads under the
// peer's own wire limit, like invoke, and answers an oversized body 413.
func TestHandlePushHonoursWithLimits(t *testing.T) {
	p, _, err := Open("sub", core.MustParseSystem(`doc portal = portal`), WithLimits(1024))
	if err != nil {
		t.Fatal(err)
	}
	sb := NewSubscriber(p)
	p.System(func(s *core.System) { sb.Register("s1", "portal", s.Document("portal").Root) })
	srv := httptest.NewServer(sb.Handler())
	defer srv.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+PathPush+"s1", "application/xml", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Far below the package-wide MaxWireBytes, above this peer's limit.
	if got := post("<ax:forest>" + strings.Repeat("<x></x>", 1024) + "</ax:forest>"); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized push: status %d, want 413", got)
	}
	if got := portalTree(p).CanonicalString(); got != "portal" {
		t.Errorf("an oversized push reached the document: %s", got)
	}
	if got := post("<ax:forest><x></x></ax:forest>"); got != http.StatusOK {
		t.Errorf("a push under the limit: status %d, want 200", got)
	}
}

// countingTransport counts the requests sent through it.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestMirrorHonoursPeerClientAndLimits: a Mirror with no client of its
// own syncs through the peer's WithClient client, under the peer's
// WithLimits cap — the delta fetch as much as the anti-entropy probe —
// and so does a publisher's delivery.
func TestMirrorHonoursPeerClientAndLimits(t *testing.T) {
	origin := mustOpen("origin", core.MustParseSystem(
		`doc log = log{`+strings.Repeat(`entry{"0123456789"},`, 30)+`last}`))
	srv := httptest.NewServer(origin.Handler())
	defer srv.Close()

	open := func(opts ...Option) (*Peer, *Mirror) {
		t.Helper()
		p, _, err := Open("replica", core.MustParseSystem(`
doc log = log
func Entries = got{$v} :- log/log{entry{$v}}`), opts...)
		if err != nil {
			t.Fatal(err)
		}
		m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
		p.AddMirror(m)
		return p, m
	}

	// The document is far below the package-wide cap, above this peer's.
	p, m := open(WithLimits(64))
	if _, err := m.Sync(context.Background(), p); !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("sync under WithLimits(64): want ErrResponseTooLarge, got %v", err)
	}
	if _, err := p.AntiEntropy(context.Background()); !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("anti-entropy under WithLimits(64): want ErrResponseTooLarge, got %v", err)
	}
	if got := p.Hash(); got != "log="+digestHex(tree.NewLabel("log"))+";" {
		t.Errorf("an oversized sync reached the replica: %s", got)
	}

	var rt countingTransport
	p, m = open(WithClient(&http.Client{Transport: &rt}))
	if changed, err := m.Sync(context.Background(), p); err != nil || !changed {
		t.Fatalf("sync through WithClient: changed=%v err=%v", changed, err)
	}
	if rt.n.Load() != 1 {
		t.Errorf("the peer's client saw %d mirror requests, want 1", rt.n.Load())
	}
	if n, err := p.AntiEntropy(context.Background()); err != nil || n != 0 {
		t.Fatalf("anti-entropy on a current replica: resynced=%d err=%v", n, err)
	}
	if rt.n.Load() != 2 {
		t.Errorf("the peer's client saw %d requests after the probe, want 2", rt.n.Load())
	}
	if p.Hash() != origin.Hash() {
		t.Errorf("replica %s != origin %s", p.Hash(), origin.Hash())
	}

	sb, subPeer := newPortalSubscriber(t, "s1")
	subSrv := httptest.NewServer(sb.Handler())
	defer subSrv.Close()
	pub := NewPublisher(p)
	pub.Subscribe("s1", Envelope{Service: "Entries"}, subSrv.URL)
	if pushed, err := pub.Flush(context.Background()); err != nil || pushed == 0 {
		t.Fatalf("flush through WithClient: pushed=%d err=%v", pushed, err)
	}
	if rt.n.Load() != 3 {
		t.Errorf("the peer's client saw %d requests after the delivery, want 3", rt.n.Load())
	}
	if got := portalTree(subPeer).CanonicalString(); !strings.Contains(got, "0123456789") {
		t.Errorf("the delivery did not reach the subscriber: %s", got)
	}
}

func TestWireDocRecordAndSnapshotRoundTrip(t *testing.T) {
	root := syntax.MustParseDocument(`log{entry{"a"},!Annotate{"b"}}`)
	data, err := MarshalDocRecord("notes", root)
	if err != nil {
		t.Fatal(err)
	}
	name, back, err := UnmarshalDocRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if name != "notes" || !tree.Isomorphic(root, back) {
		t.Fatalf("doc record round trip: %q %s", name, back)
	}

	docs := []*tree.Document{
		tree.NewDocument("a", syntax.MustParseDocument(`x{y}`)),
		tree.NewDocument("b", syntax.MustParseDocument(`z{"v"}`)),
	}
	snap, err := MarshalSnapshot(docs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" ||
		!tree.Isomorphic(got[0].Root, docs[0].Root) || !tree.Isomorphic(got[1].Root, docs[1].Root) {
		t.Fatalf("snapshot round trip: %v", got)
	}

	for _, bad := range []string{
		`<ax:doc><x/></ax:doc>`,        // no name
		`<ax:doc name="d"></ax:doc>`,   // no tree
		`<other name="d"><x/></other>`, // wrong element
	} {
		if _, _, err := UnmarshalDocRecord([]byte(bad)); err == nil {
			t.Errorf("accepted bad doc record %q", bad)
		}
	}
	if _, err := UnmarshalSnapshot([]byte(`<wrong/>`)); err == nil {
		t.Error("accepted bad snapshot")
	}
}
