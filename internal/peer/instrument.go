package peer

import (
	"net/http"
	"time"

	"axml/internal/obs"
)

// countingWriter records the status code and body bytes a handler writes,
// for the per-endpoint metrics below. WriteHeader is tracked explicitly
// because handlers that never call it implicitly answer 200.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (cw *countingWriter) WriteHeader(code int) {
	cw.status = code
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(b)
	cw.bytes += int64(n)
	return n, err
}

// instrument is the one way in to a peer endpoint. It answers any method
// other than the endpoint's own with 405 and the Allow header RFC 9110
// requires — inside the counted wrapper, so a refused request is still a
// request and an error in the metrics (which is why the mux's own method
// patterns are not used) — and wraps the handler with per-endpoint metrics:
//
//	peer.http.requests.<endpoint>    counter, every request
//	peer.http.errors.<endpoint>      counter, responses with status >= 400
//	peer.http.latency_ns.<endpoint>  histogram, handler wall time
//	peer.http.bytes_in.<endpoint>    counter, declared request body bytes
//	peer.http.bytes_out.<endpoint>   counter, response body bytes written
//
// With no registry attached the handler runs behind the method check
// alone — the wrapper costs one nil check, so Handler can install it
// unconditionally.
//
// instrument is also the server half of trace propagation: an incoming
// W3C traceparent header joins the caller's trace, a missing one starts
// a fresh trace when this peer traces locally. The server span context
// rides the request context — handlers pass r.Context() down (into the
// engine, into outbound Client calls) and the whole cross-peer cascade
// shares one trace ID. When the peer has a tracer, each request also
// emits an "http" span (name = endpoint, attrs: status) as the child of
// the caller's span.
func (p *Peer) instrument(endpoint, method string, h http.HandlerFunc) http.HandlerFunc {
	checked := func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			http.Error(w, method+" required", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		m, tr := p.metrics, p.tracer
		parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		var sc obs.SpanContext
		if parent.Valid() || tr.Enabled() {
			sc = parent.NewChild()
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sc))
		}
		if m == nil && !tr.Enabled() {
			checked(w, r)
			return
		}
		ts := tr.Now()
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		checked(cw, r)
		if tr.Enabled() {
			tr.Emit(obs.Span{
				Kind:  "http",
				Name:  endpoint,
				TSUs:  ts,
				DurUs: int64(time.Since(start) / time.Microsecond),
				Attrs: map[string]int64{"status": int64(cw.status)},
			}.WithContext(sc, parent))
		}
		if m == nil {
			return
		}
		m.Counter("peer.http.requests." + endpoint).Inc()
		m.Histogram("peer.http.latency_ns." + endpoint).ObserveSince(start)
		if r.ContentLength > 0 {
			m.Counter("peer.http.bytes_in." + endpoint).Add(r.ContentLength)
		}
		if cw.bytes > 0 {
			m.Counter("peer.http.bytes_out." + endpoint).Add(cw.bytes)
		}
		if cw.status >= 400 {
			m.Counter("peer.http.errors." + endpoint).Inc()
		}
	}
}
