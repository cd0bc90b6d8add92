package peer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/query"
	"axml/internal/tree"
)

// HTTP endpoints exposed by a Peer.
const (
	PathInvoke = "/axml/invoke"
	PathDoc    = "/axml/doc/"
	PathSweep  = "/axml/sweep"
	PathHash   = "/axml/hash"
	PathStatus = "/axml/status"
)

// headerReads, on an /axml/invoke answer of a declarative service, names
// the documents its query reads besides input and context (comma-separated,
// each query-escaped; an empty value when it reads none). The answer is
// then determined by the envelope plus those documents, which is what lets
// RemoteService.Version gate the call. A black box's answer carries none.
const headerReads = "X-Axml-Reads"

// The read's headers, HTTP's own (RFC 7232, RFC 3229): every document
// answer names its state in ETag, If-None-Match names the state the
// reader holds, and A-IM: axml-log accepts the graft records since it
// (226 IM Used, IM: axml-log) in place of the tree.
const (
	headerETag        = "ETag"
	headerIfNoneMatch = "If-None-Match"
	headerAIM         = "A-IM"
	headerIM          = "IM"
	imLog             = "axml-log"
)

// MaxWireBytes caps every wire-format body read — remote invocation
// responses, fetched documents, and the server side of incoming requests
// — unless the reader names its own cap (Client.MaxWire, WithLimits,
// RemoteService.MaxBytes). A peer that answers with more is reported as
// ErrResponseTooLarge instead of being buffered without bound (or
// silently truncated into a parse error).
const MaxWireBytes int64 = 8 << 20

// ErrResponseTooLarge is wrapped by reads that exceed their byte cap.
var ErrResponseTooLarge = errors.New("peer: response too large")

// sizedReadMax is the largest declared length readAllLimited believes.
const sizedReadMax = 64 << 10

// readAllLimited reads r to EOF, failing with ErrResponseTooLarge once
// more than limit bytes appear (limit <= 0 means MaxWireBytes). size is
// the declared length, negative when unknown. Up to sizedReadMax it sizes
// the one buffer the body takes (a push's "ok" costs 3 bytes, not 512).
// A larger one is not believed before the bytes arrive — a peer may
// declare what it never sends — so the buffer starts at sizedReadMax and
// grows with the data, as io.ReadAll's does.
func readAllLimited(r io.Reader, size, limit int64) ([]byte, error) {
	if limit <= 0 {
		limit = MaxWireBytes
	}
	if size < 0 {
		size = 512
	}
	size = min(size, sizedReadMax, limit)
	buf := make([]byte, 0, size+1) // +1: EOF shows without growing
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, fmt.Errorf("%w (cap %d bytes)", ErrResponseTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// Peer hosts an AXML system and serves its services over HTTP. All
// exported methods are safe for concurrent use under the engine's own
// concurrency model: whatever reads the documents holds the read side of
// the system's version funnel (core.System.View), beside other reads and
// a sweep's evaluations; whatever mutates them — a sweep's merges,
// Peer.System, the journal flush — holds the write side (Update). A
// reader passes a queued writer, so a document that — directly or through
// a cycle of peers — calls this peer's own services is served while the
// calling evaluation waits on the network; a write arriving meanwhile
// waits for that evaluation (DESIGN.md, Peer locking).
type Peer struct {
	// Name identifies the peer in logs and stats.
	Name string

	// ErrorPolicy selects how Sweep reacts to service errors; the zero
	// value is core.FailFast (abort the sweep on the first error).
	ErrorPolicy core.ErrorPolicy

	// system is read inside its View, mutated inside its Update or a merge.
	system *core.System

	statsMu sync.Mutex // guards stats, nothing else
	stats   Stats

	// store is the durability layer (nil for an in-memory peer; fixed by
	// Open). Its fields are guarded by the system's write side: every
	// growth, hence the mutation hook queueing its record, runs there, and
	// so does the flush.
	store *store

	// mirrorMu guards mirrors, the replicas registered for anti-entropy.
	mirrorMu sync.Mutex
	mirrors  []*Mirror

	// client is the peer's outbound HTTP client (WithClient); nil means
	// Client's shared default. maxWire caps bodies this peer reads
	// (WithLimits); 0 means MaxWireBytes. Outbound, remote applies both.
	client  *http.Client
	maxWire int64

	// metrics and tracer are the observability sinks (WithObservability,
	// WithTracer); either may be nil. logger is never nil — Open defaults
	// it to a discarding logger so call sites need no guard.
	metrics *obs.Registry
	tracer  *obs.Tracer
	logger  *slog.Logger

	// anchors remembers the states PathDoc served and the graft records
	// since, so it can answer with the records instead of the full tree.
	// It locks itself.
	anchors *deltaAnchors

	// memo keeps the encoded document states and declarative answers the
	// peer serves until the mutation hook drops them. It locks itself.
	memo *memo

	// converge tracks per-document replication watermarks (origin digest
	// seen vs local digest reached) for the /axml/status surface and the
	// peer.converge.* metrics. It has its own lock, so registry gauge
	// functions can read it from any goroutine.
	converge *convergence

	// started anchors the uptime reported by /axml/status.
	started time.Time
}

// Stats counts a peer's activity.
type Stats struct {
	// Served counts incoming service invocations.
	Served int
	// Sweeps counts local sweeps triggered via PathSweep or Sweep.
	Sweeps int
	// Steps counts strictly-growing local invocations.
	Steps int
	// Failures counts failed invocations observed by local sweeps.
	Failures int
	// CallsFired, CallsSterile and DeltaEvals sum the sweeps'
	// core.RunStats: evaluations dispatched, calls the sterile-call gate
	// skipped (across sweeps too: the gate outlives the run) and
	// evaluations that ran against a delta.
	CallsFired   int
	CallsSterile int
	DeltaEvals   int
	CallsBatched int // RunStats.CallsBatched: calls sent in batches
}

// Open is the canonical constructor: it wraps a system as a peer, applies
// the options and — when WithDurability names a data directory — recovers
// any state a previous incarnation persisted there before attaching the
// journal. The system should be freshly built from its definition; after
// Open, access it only through the peer's methods. Durable peers should run
// AntiEntropy once live peers are reachable, to pull mirrored documents
// that moved while this peer was down.
func Open(name string, s *core.System, opts ...Option) (*Peer, RecoveryInfo, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	var info RecoveryInfo
	for _, doc := range s.DocNames() {
		if err := CheckDocName(doc); err != nil {
			return nil, info, err
		}
	}
	var st *store
	if cfg.durability.Dir != "" {
		var err error
		st, info, err = openStore(name, s, cfg.durability, cfg.metrics, cfg.tracer)
		if err != nil {
			return nil, info, err
		}
	}
	p := &Peer{
		Name:        name,
		system:      s,
		ErrorPolicy: cfg.errorPolicy,
		client:      cfg.client,
		maxWire:     cfg.maxWire,
		metrics:     cfg.metrics,
		tracer:      cfg.tracer,
		logger:      obs.LoggerOr(cfg.logger),
		converge:    newConvergence(),
		anchors:     newDeltaAnchors(),
		memo:        newMemo(cfg.metrics),
		started:     time.Now(),
	}
	if cfg.metrics != nil {
		// Live gauges, evaluated at snapshot time: the replication
		// watermarks and the delta logs' size.
		cfg.metrics.GaugeFunc("peer.converge.docs", p.converge.docsTracked)
		cfg.metrics.GaugeFunc("peer.converge.behind", p.converge.docsBehind)
		cfg.metrics.GaugeFunc("peer.delta.log_records", func() int64 { n, _ := p.anchors.size(""); return n })
		cfg.metrics.GaugeFunc("peer.delta.log_bytes", func() int64 { _, n := p.anchors.size(""); return n })
		if cfg.tracer != nil {
			// A silently failing or sampling tracer is itself an
			// observability incident; surface both in the registry.
			tr := cfg.tracer
			cfg.metrics.GaugeFunc("obs.trace.dropped", tr.Dropped)
			cfg.metrics.GaugeFunc("obs.trace.err", func() int64 {
				if tr.Err() != nil {
					return 1
				}
				return 0
			})
		}
	}
	if info.Recovered {
		p.logger.Info("peer recovered",
			"peer", name, "snapshot_seq", info.SnapshotSeq,
			"replayed", info.Replayed, "torn", info.Torn)
	}
	p.store = st
	// The hook fires inside every growth, which all run under the
	// system's write side, so the pending records need no lock of their
	// own. It is installed after recovery on purpose: recovery's own
	// merges must not journal themselves back.
	s.SetMutationHook(p.mutated)
	return p, info, nil
}

// wireLimit is the byte cap for bodies this peer reads.
func (p *Peer) wireLimit() int64 {
	if p.maxWire > 0 {
		return p.maxWire
	}
	return MaxWireBytes
}

// remote is the typed view of another peer's endpoints as this peer
// reaches them — the only place a peer picks a transport: own when the
// caller carries one (Mirror.Client), else the peer's (WithClient), under
// the peer's wire limit (WithLimits). Mirror syncs, anti-entropy probes
// and push deliveries all leave through it.
func (p *Peer) remote(baseURL string, own *http.Client) *Client {
	if own == nil {
		own = p.client
	}
	return &Client{BaseURL: baseURL, HTTP: own, MaxWire: p.maxWire}
}

// System gives exclusive access to the underlying system (core.System.
// Update: fn waits for the evaluations and views in flight, and none
// starts meanwhile). Mutations made inside fn are journaled before the
// lock is released (when the peer is durable). fn must not call back
// into the peer or start a run.
func (p *Peer) System(fn func(s *core.System)) {
	p.system.Update(func() {
		fn(p.system)
		p.flushJournalLocked()
	})
}

// Stats returns a snapshot of the counters.
func (p *Peer) Stats() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

// Handler returns the HTTP handler exposing the peer. When a registry is
// attached (WithObservability) every endpoint reports request, error,
// latency and byte metrics under peer.http.*.<endpoint>.
func (p *Peer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathInvoke, p.instrument("invoke", http.MethodPost, p.handleInvoke))
	mux.HandleFunc(PathDoc, p.instrument("doc", http.MethodGet, p.handleDoc))
	mux.HandleFunc(PathSweep, p.instrument("sweep", http.MethodPost, p.handleSweep))
	mux.HandleFunc(PathHash, p.instrument("hash", http.MethodGet, p.handleHash))
	mux.HandleFunc(PathStatus, p.instrument("status", http.MethodGet, p.handleStatus))
	return mux
}

// handleInvoke answers an ax:envelope with its forest, and an ax:batch
// of envelopes with their ax:answers (serveBatch).
func (p *Peer) handleInvoke(w http.ResponseWriter, r *http.Request) {
	body, ok := p.readBody(w, r)
	if !ok {
		return
	}
	if hasRoot(body, elemBatch) {
		p.serveBatch(r.Context(), w, body)
		return
	}
	a, declarative, code, err := p.invokeOne(r.Context(), body)
	if err != nil {
		http.Error(w, err.Error(), code)
		return
	}
	if declarative {
		w.Header().Set(headerReads, a.reads)
	}
	writeXML(w, a.data)
}

// invokeOne answers one encoded envelope. A declarative answer is a
// function of the body and of the documents it read: a kept one is served
// as is, a fresh one kept. code is a lone invoke's failure status: 400
// for a body that is no envelope (distinguishable from server faults),
// 502 for a failed evaluation.
func (p *Peer) invokeOne(ctx context.Context, body []byte) (a answer, declarative bool, code int, err error) {
	kept, key, gen, hit := p.memo.answer(body)
	if hit {
		p.countServed()
		return kept, true, 0, nil
	}
	env, err := UnmarshalEnvelope(body)
	if err != nil {
		return a, false, http.StatusBadRequest, fmt.Errorf("bad envelope: %v", err)
	}
	forest, reads, declarative, err := p.serve(ctx, env)
	if err != nil {
		return a, false, http.StatusBadGateway, err
	}
	data, err := MarshalForest(forest)
	if err != nil {
		return a, false, http.StatusInternalServerError, err
	}
	a = answer{body, data, reads}
	if declarative {
		p.memo.keep(key, gen, a)
	}
	return a, declarative, 0, nil
}

// serveBatch answers an ax:batch with ax:answers, each envelope as a lone
// invoke (invokeOne: the memo keys it by its own bytes), a failure as an
// ax:error. The answer names the union of the read sets only when every
// envelope answered was answered by a declarative service.
func (p *Peer) serveBatch(ctx context.Context, w http.ResponseWriter, body []byte) {
	spans, err := childSpans(body, elemBatch, elemEnvelope)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
		return
	}
	var e encoder
	e.open(elemAnswers)
	var reads []string
	answered, declarative := false, true
	for _, sp := range spans {
		// A kept answer keeps its body: a copy, not the whole batch.
		a, decl, _, err := p.invokeOne(ctx, bytes.Clone(body[sp.lo:sp.hi]))
		if err != nil {
			e.fail(err)
			continue
		}
		e.b = append(e.b, a.data...)
		answered, declarative = true, declarative && decl
		for _, name := range strings.Split(a.reads, ",") {
			if name != "" && !slices.Contains(reads, name) {
				reads = append(reads, name)
			}
		}
	}
	e.close(elemAnswers)
	if answered && declarative {
		w.Header().Set(headerReads, strings.Join(reads, ","))
	}
	writeXML(w, e.b)
}

// writeXML answers with a wire body of known length. Content-Length lets
// the reader size one buffer (readAllLimited); without it net/http
// chunks a body over its 2 KiB buffer.
func writeXML(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// readBody reads a request body under the peer's wire limit (WithLimits),
// into one buffer of its declared length. On failure it has already
// answered — 413 for an oversized body, 400 for a broken read — and
// reports false.
func (p *Peer) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := p.wireLimit()
	body, err := readAllLimited(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("request body over %d bytes", tooLarge.Limit),
			http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return nil, false
}

// Serve evaluates a local service for an incoming envelope: the service
// runs against this peer's documents, with the caller's input and context
// (the AXML Web service semantics — results may themselves contain calls,
// i.e. intensional answers). The context is the caller's — over HTTP it
// is the request context, so a disconnected client cancels the
// evaluation it asked for. It holds the system's read side, like an
// engine evaluation: it overlaps reads and sweeps and excludes merges.
// The named documents are matched through the system's indexes; the
// envelope's input and context are not indexed.
func (p *Peer) Serve(ctx context.Context, env Envelope) (tree.Forest, error) {
	forest, _, _, err := p.serve(ctx, env)
	return forest, err
}

// serve is Serve also returning, for a declarative service, the
// headerReads value naming the documents its answer depends on.
func (p *Peer) serve(ctx context.Context, env Envelope) (forest tree.Forest, reads string, declarative bool, err error) {
	p.system.View(func() {
		svc := p.system.Service(env.Service)
		if svc == nil {
			err = fmt.Errorf("peer %s: unknown service %q", p.Name, env.Service)
			return
		}
		input := env.Input
		if input == nil {
			input = tree.NewLabel(tree.Input)
		}
		p.countServed()
		docs := p.system.Docs()
		ixs := make(query.Indexes, len(docs))
		for name := range docs {
			ixs[name] = p.system.Index(name)
		}
		forest, err = svc.Invoke(ctx, core.Binding{
			Input:   input,
			Context: env.Context,
			Docs:    docs,
			Indexes: ixs,
		})
		if qs := p.system.Declarative(env.Service); qs != nil {
			reads, declarative = readsOf(qs.Query), true
		}
	})
	return forest, reads, declarative, err
}

// countServed counts one incoming service invocation.
func (p *Peer) countServed() {
	p.statsMu.Lock()
	p.stats.Served++
	p.statsMu.Unlock()
	p.metrics.Counter("peer.served").Inc()
}

// readsOf is the headerReads value of a declarative service's query.
func readsOf(q *query.Query) string {
	var b strings.Builder
	for i, a := range q.Body {
		if a.Doc == tree.Input || a.Doc == tree.Context ||
			slices.ContainsFunc(q.Body[:i], func(p query.Atom) bool { return p.Doc == a.Doc }) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(url.QueryEscape(a.Doc))
	}
	return b.String()
}

// handleDoc answers GET /axml/doc/<name>, the peer's one read: 304 with
// no body when If-None-Match names the current state; 226 and the framed
// graft records since the state it names when the request accepts the
// log (A-IM) and the log covers that anchor; else 200 and the memo's
// bytes. Every answer's ETag is the served state, which becomes the
// reader's next anchor at the growth count it is served at. A read that
// accepts the log is a replica's sync, counted by answer.
func (p *Peer) handleDoc(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Path[len(PathDoc):]
	from := etagDigest(r.Header.Get(headerIfNoneMatch))
	logOK := r.Header.Get(headerAIM) == imLog
	var to, mode string
	var data []byte // the log's framed records, or the full tree
	var err error
	p.system.View(func() {
		doc := p.system.Document(name)
		if doc == nil {
			return
		}
		to = digestHex(doc.Root)
		switch {
		case from == to:
			mode = DeltaSame
		case from != "" && logOK:
			if data = p.anchors.since(name, from); data != nil {
				mode = DeltaLog
			}
		}
		if mode == "" {
			mode = DeltaFull
			data, err = p.memo.doc(name, doc.Root)
		}
		if err == nil {
			p.anchors.remember(name, to)
		}
	})
	if to == "" {
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if logOK {
		p.metrics.Counter("peer.delta.served." + mode).Inc()
	}
	w.Header().Set(headerETag, `"`+to+`"`)
	switch mode {
	case DeltaSame:
		w.WriteHeader(http.StatusNotModified)
	case DeltaLog:
		w.Header().Set(headerIM, imLog)
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.WriteHeader(http.StatusIMUsed)
		w.Write(data)
	default:
		writeXML(w, data)
	}
}

// etagDigest is the digest a strong entity tag names, "" for any other
// value (a weak tag, a list, *): the read is then unconditional.
func etagDigest(tag string) string {
	if len(tag) < 2 || tag[0] != '"' || strings.IndexByte(tag[1:], '"') != len(tag)-2 {
		return ""
	}
	return tag[1 : len(tag)-1]
}

// Sweep performs one fair local sweep (each current call attempted once)
// and reports whether anything changed. Remote calls embedded in local
// documents go over HTTP during the sweep; the evaluation waiting on one
// holds only the system's read side, so incoming invocations — including
// the peer's own services called back through the wire — are served
// instead of deadlocking. Concurrent sweeps are concurrent runs (their
// evaluations overlap, their merges serialize); a durable peer's sweep
// returns after its merges are journaled. Under core.Degrade a failing
// call is quarantined and the sweep continues; the error is still reported.
func (p *Peer) Sweep() (bool, error) {
	return p.SweepContext(context.Background())
}

// SweepContext is Sweep with a caller context: cancellation aborts the
// in-flight evaluations, and a span context riding ctx (a coordinator's
// root, an incoming request's server span) parents the sweep's trace so
// cross-peer cascades stitch into one trace.
func (p *Peer) SweepContext(ctx context.Context) (bool, error) {
	res := p.system.RunContext(ctx, core.RunOptions{
		MaxSweeps: 1, ErrorPolicy: p.ErrorPolicy,
		Metrics: p.metrics, Tracer: p.tracer,
	})
	p.statsMu.Lock()
	p.stats.Sweeps++
	p.stats.Steps += res.Steps
	p.stats.Failures += res.Failures
	p.stats.CallsFired += res.Stats.CallsFired
	p.stats.CallsSterile += res.Stats.CallsSterile
	p.stats.DeltaEvals += res.Stats.DeltaEvals
	p.stats.CallsBatched += res.Stats.CallsBatched
	p.statsMu.Unlock()
	p.logger.Debug("sweep", append([]any{"peer", p.Name,
		"steps", res.Steps, "attempts", res.Attempts, "failures", res.Failures},
		obs.SpanFromContext(ctx).LogArgs()...)...)
	if p.store != nil {
		p.system.Update(p.flushJournalLocked)
	}
	if res.Err != nil && (p.ErrorPolicy == core.FailFast || res.Steps == 0) {
		return res.Steps > 0, res.Err
	}
	return res.Steps > 0, nil
}

func (p *Peer) handleSweep(w http.ResponseWriter, r *http.Request) {
	changed, err := p.SweepContext(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if changed {
		io.WriteString(w, "changed")
	} else {
		io.WriteString(w, "quiet")
	}
}

// Hash returns the peer's current state as "name=digest;" per document —
// the PathHash body, compared across rounds for distributed termination
// detection and per document by anti-entropy. Each digest is the
// document's memoized tree.Digest (digestHex), as fresh as the growth
// funnel's invalidation (core.System.Append / Restore).
func (p *Peer) Hash() string {
	var h string
	p.system.View(func() {
		for _, name := range p.system.DocNames() {
			h += name + "=" + digestHex(p.system.Document(name).Root) + ";"
		}
	})
	return h
}

// localDigest is one document's advertised digest, "" for an unknown name.
func (p *Peer) localDigest(name string) (digest string) {
	p.system.View(func() {
		if doc := p.system.Document(name); doc != nil {
			digest = digestHex(doc.Root)
		}
	})
	return digest
}

func (p *Peer) handleHash(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, p.Hash())
}

// RemoteService is a core.Service whose implementation lives on another
// peer: Invoke marshals input and context into an envelope, POSTs it and
// decodes the returned forest. The remote peer evaluates against its own
// documents — only the reserved input/context travel, exactly as in the
// formal model where each function name denotes a service at some URL.
// The caller (an engine evaluation, Peer.Serve) holds its system's read
// side throughout: the binding's live trees are stable while marshaled.
// It is core.Versioned once a declarative remote has answered (see
// Version).
type RemoteService struct {
	// Name is the local function name.
	Name string
	// Service is the remote service name (often equal to Name).
	Service string
	// URL is the remote peer's base URL.
	URL string
	// Client is the HTTP client; nil means Client's shared default
	// (10s timeout, pooled keep-alive connections).
	Client *http.Client
	// MaxBytes caps the response body; 0 means MaxWireBytes. Responses
	// over the cap fail with ErrResponseTooLarge.
	MaxBytes int64

	// reads is the headerReads value of the last answer; nil before the
	// first answer and after one without the header (a black box).
	reads atomic.Pointer[string]
}

// ServiceName implements core.Service.
func (r *RemoteService) ServiceName() string { return r.Name }

func (r *RemoteService) client() *Client {
	return &Client{BaseURL: r.URL, HTTP: r.Client, MaxWire: r.MaxBytes}
}

// Version implements core.Versioned: the read set the last answer named
// in headerReads and, from one Hashes probe, the remote digests of those
// documents. It is "" — unknown, the call fires — before a declarative
// remote answered, when a named document is missing or when the probe
// fails. An empty read set needs no probe: the answer depends on the
// envelope alone.
func (r *RemoteService) Version(ctx context.Context) string {
	reads := r.reads.Load()
	if reads == nil {
		return ""
	}
	tok := *reads + "@"
	if *reads == "" {
		return tok
	}
	digests, err := r.client().Hashes(ctx)
	if err != nil {
		return ""
	}
	for _, esc := range strings.Split(*reads, ",") {
		name, err := url.QueryUnescape(esc)
		digest, ok := digests[name]
		if err != nil || !ok {
			return ""
		}
		tok += digest + ","
	}
	return tok
}

// Invoke implements core.Service over HTTP. The request carries the
// caller's context, so cancelling it (engine shutdown, a Timeout
// middleware's deadline, a dropped upstream client) tears down the
// connection to a hung peer instead of waiting out the client timeout.
// It is a batch of one: a lone envelope, sent as it always was.
func (r *RemoteService) Invoke(ctx context.Context, b core.Binding) (tree.Forest, error) {
	fs, errs := r.InvokeBatch(ctx, []core.Binding{b})
	return fs[0], errs[0]
}

// InvokeBatch implements core.BatchService: the bindings' envelopes go
// out as ax:batch requests (Client.invokeBatch), one forest or error per
// binding, in order. It keeps the read set of the last answer that
// answered any.
func (r *RemoteService) InvokeBatch(ctx context.Context, bs []core.Binding) ([]tree.Forest, []error) {
	svc := r.Service
	if svc == "" {
		svc = r.Name
	}
	envs := make([]Envelope, len(bs))
	for i, b := range bs {
		envs[i] = Envelope{Service: svc, Input: b.Input, Context: b.Context}
	}
	fs, errs, hdr := r.client().invokeBatch(ctx, envs)
	if hdr != nil {
		var reads *string // a black box's answer names no read set
		if vs := hdr.Values(headerReads); vs != nil {
			reads = &vs[0]
		}
		r.reads.Store(reads)
	}
	return fs, errs
}
