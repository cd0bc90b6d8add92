package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/tree"
)

// The traced pass. Spans are recorded only here, around calls into the
// program's layers, never inside it: a root span per operation,
// client.<method> around peer.Client, http.roundtrip in the transport,
// server.<endpoint> around the peer handlers, service.<name> around
// each registered service, mirror.sync and journal.write. A nil
// *recorder disables all of it — every method no-ops and none of the
// wrappers is installed — which is the pass the end-to-end numbers come
// from.

// span is one recorded interval, in nanoseconds since the recorder's
// epoch (one process, one clock: client and server sides are
// comparable).
type span struct {
	name, trace, id, parent string
	start, end              time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// ambient is the server span currently being handled, for callees
	// that are handed no context (the journal's writer). Only
	// meaningful on single-caller workloads.
	ambient atomic.Pointer[obs.SpanContext]
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// reset drops what was recorded so far (a warm-up's spans).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// benchSpan carries the benchmark's own current span through contexts.
// The program re-parents the obs span context on its way down (the
// peer handler and Mirror.Sync each mint an unrecorded child), so the
// obs key alone would leave recorded spans pointing at parents nobody
// recorded.
type benchSpan struct{}

func parentOf(ctx context.Context) obs.SpanContext {
	sc, _ := ctx.Value(benchSpan{}).(obs.SpanContext)
	return sc
}

// start opens a span under the benchmark span riding ctx (a fresh trace
// root when there is none). The returned context carries the new span
// both under the benchmark's key and as the obs span context, so
// peer.Client stamps it into the traceparent header.
func (r *recorder) start(ctx context.Context, name string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	parent := parentOf(ctx)
	sc := parent.NewChild()
	begin := time.Since(r.epoch)
	ctx = context.WithValue(obs.ContextWithSpan(ctx, sc), benchSpan{}, sc)
	return ctx, func() {
		s := span{name: name, trace: sc.Trace, id: sc.Span, parent: parent.Span,
			start: begin, end: time.Since(r.epoch)}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// tracedService decorates a service with a service.<name> span. It
// implements core.Wrapper, so dependency analysis, semi-naive
// evaluation and the peer's gate attachment all reach the service
// underneath unchanged.
type tracedService struct {
	core.Service
	rec *recorder
}

func (t tracedService) Unwrap() core.Service { return t.Service }

func (t tracedService) Invoke(ctx context.Context, b core.Binding) (tree.Forest, error) {
	ctx, end := t.rec.start(ctx, "service."+t.ServiceName())
	defer end()
	return t.Service.Invoke(ctx, b)
}

// wrapService is the identity on the untraced pass.
func (r *recorder) wrapService(svc core.Service) core.Service {
	if r == nil {
		return svc
	}
	return tracedService{Service: svc, rec: r}
}

// transport records http.roundtrip from request start until the
// response body is drained or closed (RoundTrip itself returns at the
// response headers), and rewrites traceparent so the server span is a
// child of the round trip.
type transport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, end := t.rec.start(req.Context(), "http.roundtrip")
	req = req.Clone(ctx)
	req.Header.Set(obs.TraceparentHeader, obs.SpanFromContext(ctx).Traceparent())
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// middleware records server.<endpoint> around a peer's handlers, as a
// child of the caller's round trip.
func (r *recorder) middleware(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx := req.Context()
		if parent, ok := obs.ParseTraceparent(req.Header.Get(obs.TraceparentHeader)); ok {
			ctx = context.WithValue(ctx, benchSpan{}, parent)
		}
		ctx, end := r.start(ctx, "server."+endpointOf(req.URL.Path))
		sc := parentOf(ctx)
		r.ambient.Store(&sc)
		h.ServeHTTP(w, req.WithContext(ctx))
		r.ambient.Store(nil)
		end()
	})
}

// endpointOf maps /axml/<endpoint>[/...] to the endpoint name.
func endpointOf(path string) string {
	ep := strings.TrimPrefix(path, "/axml/")
	if i := strings.IndexByte(ep, '/'); i >= 0 {
		ep = ep[:i]
	}
	return ep
}

// journalWriter is the Durability.WrapWriter hook: journal.write spans
// around the log file's writer, parented on the ambient server span.
func (r *recorder) journalWriter(w io.Writer) io.Writer {
	return writerFunc(func(p []byte) (int, error) {
		ctx := context.Background()
		if sc := r.ambient.Load(); sc != nil {
			ctx = context.WithValue(ctx, benchSpan{}, *sc)
		}
		_, end := r.start(ctx, "journal.write")
		defer end()
		return w.Write(p)
	})
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// opTrace is one operation's trace reduced to self times.
type opTrace struct {
	root    span
	spans   []spanSelf    // every span of the trace, root included
	selfSum time.Duration // over spans
}

type spanSelf struct {
	name string
	dur  time.Duration
	self time.Duration
}

// unattributed is the share of the root's duration the self times fail
// to account for (sibling spans that overlap, or a child outliving its
// parent, push the sum off the root).
func (o opTrace) unattributed() float64 {
	d := o.root.dur() - o.selfSum
	if d < 0 {
		d = -d
	}
	return ratio(float64(d), float64(o.root.dur()))
}

// summarize groups spans by trace and computes every span's self time:
// its duration minus the part of its interval that child spans cover.
// Traces without a recorded root (there are none in a clean run) are
// dropped.
func summarize(spans []span) []opTrace {
	byTrace := map[string][]span{}
	var order []string
	for _, s := range spans {
		if _, ok := byTrace[s.trace]; !ok {
			order = append(order, s.trace)
		}
		byTrace[s.trace] = append(byTrace[s.trace], s)
	}
	var out []opTrace
	for _, id := range order {
		group := byTrace[id]
		children := map[string][]span{}
		var root *span
		for i, s := range group {
			if s.parent == "" {
				root = &group[i]
			} else {
				children[s.parent] = append(children[s.parent], s)
			}
		}
		if root == nil {
			continue
		}
		o := opTrace{root: *root}
		for _, s := range group {
			self := s.dur() - covered(s, children[s.id])
			o.selfSum += self
			o.spans = append(o.spans, spanSelf{name: s.name, dur: s.dur(), self: self})
		}
		out = append(out, o)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cursor := parent.start
	for _, k := range kids {
		lo, hi := k.start, k.end
		if lo < cursor {
			lo = cursor
		}
		if hi > parent.end {
			hi = parent.end
		}
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// traceView answers the per-layer questions over one traced pass.
type traceView []opTrace

// perOp is, for each operation rooted at a span named root ("" = every
// operation), the summed self time in milliseconds of its spans whose
// name starts with prefix.
func (v traceView) perOp(root, prefix string) []float64 {
	var out []float64
	for _, o := range v {
		if root != "" && o.root.name != root {
			continue
		}
		var t time.Duration
		for _, s := range o.spans {
			if strings.HasPrefix(s.name, prefix) {
				t += s.self
			}
		}
		out = append(out, float64(t)/float64(time.Millisecond))
	}
	return out
}

// perSpan is the self time (or full duration) in milliseconds of every
// span with the given name.
func (v traceView) perSpan(name string, selfTime bool) []float64 {
	var out []float64
	for _, o := range v {
		for _, s := range o.spans {
			if s.name != name {
				continue
			}
			d := s.dur
			if selfTime {
				d = s.self
			}
			out = append(out, float64(d)/float64(time.Millisecond))
		}
	}
	return out
}

func (v traceView) unattributed() []float64 {
	out := make([]float64, len(v))
	for i, o := range v {
		out[i] = o.unattributed()
	}
	return out
}

// writeJSONL writes the spans in the obs.Span v2 field names, one
// object per line.
func (r *recorder) writeJSONL(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		kind, _, _ := strings.Cut(s.name, ".")
		if err = enc.Encode(obs.Span{Kind: kind, Name: s.name, Trace: s.trace, Span: s.id,
			Parent: s.parent, TSUs: s.start.Microseconds(), DurUs: s.dur().Microseconds()}); err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
