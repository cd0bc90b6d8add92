package peer

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// Satellite regression: every method-gated endpoint must answer a wrong
// method with 405 AND an Allow header naming the method it wants
// (RFC 9110 §15.5.6 makes Allow mandatory on 405).
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	srv := httptest.NewServer(mustOpen("p", core.MustParseSystem(`doc d = a`)).Handler())
	defer srv.Close()
	sub := NewSubscriber(mustOpen("c", core.MustParseSystem(`doc d = a`)))
	subSrv := httptest.NewServer(sub.Handler())
	defer subSrv.Close()

	cases := []struct {
		name, method, url, allow string
	}{
		{"invoke", http.MethodGet, srv.URL + PathInvoke, http.MethodPost},
		{"doc", http.MethodPost, srv.URL + PathDoc + "d", http.MethodGet},
		{"sweep", http.MethodGet, srv.URL + PathSweep, http.MethodPost},
		{"hash", http.MethodPost, srv.URL + PathHash, http.MethodGet},
		{"push", http.MethodGet, subSrv.URL + PathPush + "x", http.MethodPost},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, tc.url, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s: %s -> %d, want 405", tc.name, tc.method, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s: Allow = %q, want %q", tc.name, got, tc.allow)
		}
	}
}

// The instrumented handler chain must account every request — successes
// and errors — per endpoint, with latency and byte counts.
func TestPeerHTTPMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sys := core.MustParseSystem(`
doc ratings = db{entry{title{"Naima"},stars{"5"}}}
func GetRating = rating{$s} :- input/input{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
`)
	p, _, err := Open("ratings", sys, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// One good doc fetch, one 404 doc fetch, one 405 sweep.
	for _, u := range []string{PathDoc + "ratings", PathDoc + "nope"} {
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + PathSweep)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if got := reg.Counter("peer.http.requests.doc").Value(); got != 2 {
		t.Fatalf("doc requests = %d, want 2", got)
	}
	if got := reg.Counter("peer.http.errors.doc").Value(); got != 1 {
		t.Fatalf("doc errors = %d, want 1 (the 404)", got)
	}
	if got := reg.Counter("peer.http.errors.sweep").Value(); got != 1 {
		t.Fatalf("sweep errors = %d, want 1 (the 405)", got)
	}
	if got := reg.Histogram("peer.http.latency_ns.doc").Snapshot().Count; got != 2 {
		t.Fatalf("doc latency observations = %d, want 2", got)
	}
	if got := reg.Counter("peer.http.bytes_out.doc").Value(); got <= 0 {
		t.Fatalf("doc bytes_out = %d, want > 0", got)
	}
}

// A remote invocation through an observed peer shows up end to end:
// HTTP accounting on the serving side, engine counters from its sweep.
func TestPeerInvokeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sys := core.MustParseSystem(`
doc ratings = db{entry{title{"Naima"},stars{"5"}}}
func GetRating = rating{$s} :- input/input{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
`)
	p, _, err := Open("ratings", sys, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	client := core.NewSystem()
	if err := client.AddService(&RemoteService{Name: "GetRating", URL: srv.URL}); err != nil {
		t.Fatal(err)
	}
	portal := syntax.MustParseDocument(`q{!GetRating{title{"Naima"}}}`)
	if err := client.AddDocument(tree.NewDocument("portal", portal)); err != nil {
		t.Fatal(err)
	}
	if res := client.Run(core.RunOptions{}); !res.Terminated {
		t.Fatalf("pull run: %+v", res)
	}
	// The fixpoint re-fires the call after the first merge bumps the
	// document version, so expect at least one invoke, and exactly one
	// latency observation per request.
	requests := reg.Counter("peer.http.requests.invoke").Value()
	if requests < 1 {
		t.Fatalf("invoke requests = %d, want >= 1", requests)
	}
	if got := reg.Histogram("peer.http.latency_ns.invoke").Snapshot().Count; got != requests {
		t.Fatalf("invoke latency observations = %d, want %d", got, requests)
	}
	if got := reg.Counter("peer.http.bytes_in.invoke").Value(); got <= 0 {
		t.Fatalf("invoke bytes_in = %d, want > 0", got)
	}
	if got := reg.Counter("peer.http.errors.invoke").Value(); got != 0 {
		t.Fatalf("invoke errors = %d, want 0", got)
	}
}

// lastByteWriter is a ResponseWriter that reads the peer's registry at
// the moment a client could return and look: when it holds the last byte
// of a declared-length body, or when it is handed an error status.
type lastByteWriter struct {
	header http.Header
	reg    *obs.Registry
	got    int
	seen   map[string]float64
}

func (w *lastByteWriter) Header() http.Header { return w.header }

func (w *lastByteWriter) WriteHeader(code int) {
	if code >= 400 {
		w.seen = obs.FlattenSnapshot(w.reg)
	}
}

func (w *lastByteWriter) Write(b []byte) (int, error) {
	w.got += len(b)
	if n, _ := strconv.Atoi(w.header.Get("Content-Length")); n > 0 && w.got == n {
		w.seen = obs.FlattenSnapshot(w.reg)
	}
	return len(b), nil
}

// A request is counted before its response's last byte is handed on: a
// body of declared length can reach the client inside the handler's
// Write, and a registry read right after the client returns must find
// the request, its bytes and its error already counted. Every request
// sent is in the server's request counters at that moment.
func TestInstrumentCountsBeforeLastByte(t *testing.T) {
	reg := obs.NewRegistry()
	p, _, err := Open("ratings", core.MustParseSystem(`
doc ratings = db{entry{title{"Naima"},stars{"5"}}}
func GetRating = rating{$s} :- input/input{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
`), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	env, err := MarshalEnvelope(Envelope{Service: "GetRating",
		Input: syntax.MustParseDocument(`input{title{"Naima"}}`)})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handler()
	cases := []struct {
		method, target string
		body           []byte
		endpoint       string
		errs           float64 // the endpoint's errors counter after the request
	}{
		{http.MethodGet, PathDoc + "ratings", nil, "doc", 0},
		{http.MethodPost, PathInvoke, env, "invoke", 0},
		{http.MethodGet, PathDoc + "ratings", nil, "doc", 0},
		{http.MethodGet, PathDoc + "nope", nil, "doc", 1},
		{http.MethodGet, PathSweep, nil, "sweep", 1},
	}
	out := map[string]float64{}
	for i, c := range cases {
		w := &lastByteWriter{header: http.Header{}, reg: reg}
		h.ServeHTTP(w, httptest.NewRequest(c.method, c.target, bytes.NewReader(c.body)))
		if w.seen == nil {
			t.Fatalf("%s %s: no declared last byte and no error status", c.method, c.target)
		}
		var requests float64
		for name, v := range w.seen {
			if strings.HasPrefix(name, "peer.http.requests.") {
				requests += v
			}
		}
		if requests != float64(i+1) {
			t.Errorf("%s %s: %v requests counted at the last byte, %d sent", c.method, c.target, requests, i+1)
		}
		if got := w.seen["peer.http.errors."+c.endpoint]; got != c.errs {
			t.Errorf("%s %s: errors.%s = %v at the last byte, want %v", c.method, c.target, c.endpoint, got, c.errs)
		}
		out[c.endpoint] += float64(w.got)
		if got := w.seen["peer.http.bytes_out."+c.endpoint]; c.errs == 0 && got != out[c.endpoint] {
			t.Errorf("%s %s: bytes_out.%s = %v at the last byte, %v written", c.method, c.target, c.endpoint, got, out[c.endpoint])
		}
	}
	if got := reg.Counter("peer.http.bytes_in.invoke").Value(); got != int64(len(env)) {
		t.Errorf("bytes_in.invoke = %d, want %d", got, len(env))
	}
}
