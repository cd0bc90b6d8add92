package peer

import (
	"net/http"
	"time"

	"axml/internal/obs"
)

// countingWriter counts a response as it is handed on: an error status
// when its header is written, body bytes before each Write passes them on
// (less what a short write kept back), so a client holding the last byte
// finds them counted. It keeps the status for the http span; handlers
// that never call WriteHeader implicitly answer 200.
type countingWriter struct {
	http.ResponseWriter
	m                *obs.Registry
	errors, bytesOut string
	out              *obs.Counter
	status           int
}

func (cw *countingWriter) WriteHeader(code int) {
	if code >= 400 && cw.status < 400 {
		cw.m.Counter(cw.errors).Inc()
	}
	cw.status = code
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	if cw.out == nil && len(b) > 0 {
		cw.out = cw.m.Counter(cw.bytesOut)
	}
	cw.out.Add(int64(len(b)))
	n, err := cw.ResponseWriter.Write(b)
	if n < len(b) {
		cw.out.Add(int64(n - len(b)))
	}
	return n, err
}

// instrument is the one way in to a peer endpoint. It answers any method
// other than the endpoint's own with 405 and the Allow header RFC 9110
// requires — inside the counted wrapper, so a refused request is still a
// request and an error in the metrics (which is why the mux's own method
// patterns are not used) — and wraps the handler with per-endpoint metrics:
//
//	peer.http.requests.<endpoint>    counter, every request, on arrival
//	peer.http.errors.<endpoint>      counter, responses with status >= 400
//	peer.http.latency_ns.<endpoint>  histogram, handler wall time
//	peer.http.bytes_in.<endpoint>    counter, declared request body bytes
//	peer.http.bytes_out.<endpoint>   counter, response body bytes written
//
// All but latency (and the http span) are counted before the response
// reaches the client.
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
	requests, latency := "peer.http.requests."+endpoint, "peer.http.latency_ns."+endpoint
	bytesIn, errs, bytesOut := "peer.http.bytes_in."+endpoint, "peer.http.errors."+endpoint, "peer.http.bytes_out."+endpoint
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
		m.Counter(requests).Inc()
		if r.ContentLength > 0 {
			m.Counter(bytesIn).Add(r.ContentLength)
		}
		cw := &countingWriter{ResponseWriter: w, m: m, errors: errs, bytesOut: bytesOut, status: http.StatusOK}
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
		m.Histogram(latency).ObserveSince(start)
	}
}
