package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// parseSpans decodes a tracer buffer into spans indexed by span ID.
func parseSpans(t *testing.T, buf *bytes.Buffer) (spans []obs.Span, byID map[string]obs.Span) {
	t.Helper()
	byID = map[string]obs.Span{}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var s obs.Span
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("decode span: %v", err)
		}
		spans = append(spans, s)
		if s.Span != "" {
			byID[s.Span] = s
		}
	}
	return spans, byID
}

// climb walks parent links from s up to the earliest ancestor the trace
// recorded, returning that ancestor's Parent (the first span ID outside
// the file) and the number of recorded hops climbed.
func climb(t *testing.T, byID map[string]obs.Span, s obs.Span) (terminal string, hops int) {
	t.Helper()
	for hops = 0; hops < 32; hops++ {
		if s.Parent == "" {
			t.Fatalf("span %s/%s (kind %s) has no parent: trace disconnected", s.Span, s.Name, s.Kind)
		}
		up, ok := byID[s.Parent]
		if !ok {
			return s.Parent, hops
		}
		s = up
	}
	t.Fatalf("parent chain from %s did not terminate in 32 hops", s.Span)
	return "", 0
}

// The tentpole acceptance: a three-peer workload — a portal peer whose
// sweep fires a remote invocation against a ratings peer, whose
// publisher then pushes the same service's results to a subscriber peer
// — must produce ONE connected trace. Every span shares the caller's
// trace ID, and every span's parent chain climbs to the caller's root
// span, across both HTTP hops. The portal's two GetStars calls go out as
// one batch: the batch span is a child of the sweep, and the ratings
// peer's http span of that request a child of the batch.
func TestFleetCrossPeerTraceConnected(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)

	// Peer B: ratings, serving GetRating over HTTP.
	ratings, _, err := Open("ratings", core.MustParseSystem(`
doc ratings = db{entry{title{"Body and Soul"},stars{"4"}},entry{title{"Naima"},stars{"5"}}}
func GetRating = rating{$s} :- input/input{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
`), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	ratingsSrv := httptest.NewServer(ratings.Handler())
	defer ratingsSrv.Close()

	// Peer C: a subscriber whose inbox document receives pushes.
	inboxPeer, _, err := Open("inbox", core.MustParseSystem(`doc inbox = inbox`), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sub := NewSubscriber(inboxPeer)
	var inboxRoot *tree.Node
	inboxPeer.System(func(s *core.System) { inboxRoot = s.Document("inbox").Root })
	sub.Register("ingest", "inbox", inboxRoot)
	subSrv := httptest.NewServer(sub.Handler())
	defer subSrv.Close()

	// Peer A: a portal whose document calls the remote GetRating.
	sysA := core.NewSystem()
	if err := sysA.AddService(&RemoteService{Name: "GetRating", URL: ratingsSrv.URL}); err != nil {
		t.Fatal(err)
	}
	if err := sysA.AddService(&RemoteService{Name: "GetStars", Service: "GetRating", URL: ratingsSrv.URL}); err != nil {
		t.Fatal(err)
	}
	portal := syntax.MustParseDocument(`directory{cd{title{"Naima"},!GetRating{title{"Naima"}}},` +
		`stars{!GetStars{title{"Naima"}},!GetStars{title{"Body and Soul"}}}}`)
	if err := sysA.AddDocument(tree.NewDocument("portal", portal)); err != nil {
		t.Fatal(err)
	}
	if err := sysA.Validate(); err != nil {
		t.Fatal(err)
	}
	portalPeer, _, err := Open("portal", sysA, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}

	// The caller owns the trace root (it is never emitted — external
	// callers keep their own spans); everything below must chain to it.
	root := obs.NewTrace()
	ctx := obs.ContextWithSpan(context.Background(), root)

	// Origin sweeps: fire the remote invocation to the ratings peer and
	// merge its answer, re-sweeping to sterility.
	for i := 0; i < 5; i++ {
		changed, err := portalPeer.SweepContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			break
		}
	}

	// Push delivery: the ratings peer's publisher evaluates the same
	// service and pushes the result forest to the subscriber peer.
	pub := NewPublisher(ratings)
	pub.Subscribe("ingest", Envelope{
		Service: "GetRating",
		Input:   syntax.MustParseDocument(`input{title{"Naima"}}`),
	}, subSrv.URL)
	if n, err := pub.Flush(ctx); err != nil || n == 0 {
		t.Fatalf("flush pushed %d trees, err %v", n, err)
	}

	spans, byID := parseSpans(t, &buf)
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}

	// One trace: every span carries the caller's trace ID, and every
	// parent chain terminates at the caller's root span.
	kinds := map[string]int{}
	for _, s := range spans {
		kinds[s.Kind]++
		if s.Trace != root.Trace {
			t.Fatalf("span %s/%s (kind %s): trace %s, want %s", s.Span, s.Name, s.Kind, s.Trace, root.Trace)
		}
		if terminal, _ := climb(t, byID, s); terminal != root.Span {
			t.Fatalf("span %s/%s (kind %s): chain terminates at %s, not the caller root %s",
				s.Span, s.Name, s.Kind, terminal, root.Span)
		}
	}
	for _, kind := range []string{"sweep", "call", "batch", "http", "push"} {
		if kinds[kind] == 0 {
			t.Fatalf("no %q span in the trace (got %v)", kind, kinds)
		}
	}

	// The invoke crossed peers: the ratings peer's server-side span must
	// chain through spans the portal peer emitted (the call and sweep),
	// i.e. climb at least two recorded hops before reaching the root.
	var sawInvoke, sawBatchInvoke, sawPushDelivery bool
	for _, s := range spans {
		if s.Kind == "batch" && (byID[s.Parent].Kind != "sweep" || s.Attrs["calls"] != 2) {
			t.Fatalf("batch span %+v: want two calls, under a sweep span", s)
		}
		if s.Kind == "http" && s.Name == "invoke" && byID[s.Parent].Kind == "batch" {
			sawBatchInvoke = true
		}
		if s.Kind == "http" && s.Name == "invoke" {
			sawInvoke = true
			if _, hops := climb(t, byID, s); hops < 2 {
				t.Fatalf("invoke http span chains to root in %d hops; want it nested under the origin call+sweep", hops)
			}
		}
		if s.Kind == "http" && s.Name == "push" {
			sawPushDelivery = true
			up, ok := byID[s.Parent]
			if !ok || up.Kind != "push" {
				t.Fatalf("push delivery span's parent should be the publisher's push span, got %+v", up)
			}
		}
	}
	if !sawInvoke {
		t.Fatal("no server-side invoke span")
	}
	if !sawBatchInvoke {
		t.Fatal("no server-side invoke span under the batch span")
	}
	if !sawPushDelivery {
		t.Fatal("no server-side push delivery span")
	}
}
