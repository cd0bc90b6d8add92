package axml

import (
	"axml/internal/datalog"
	"axml/internal/faults"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/tree"
	"axml/internal/turing"
)

// Reserved document names bound at every service invocation (§2.2).
const (
	// Input is the reserved document carrying the call's parameters.
	Input = tree.Input
	// Context is the reserved document carrying the subtree rooted at
	// the call's parent.
	Context = tree.Context
)

// Distributed AXML (the P2P substrate; see internal/peer).
type (
	// Peer hosts a system and serves its services over HTTP.
	Peer = peer.Peer
	// RemoteService embeds a service living on another peer.
	RemoteService = peer.RemoteService
	// Envelope is a service invocation request on the wire.
	Envelope = peer.Envelope
	// Coordinator drives peers to a distributed fixpoint.
	Coordinator = peer.Coordinator
	// Publisher implements push-mode subscriptions on a peer.
	Publisher = peer.Publisher
	// Subscriber receives pushed forests into local documents.
	Subscriber = peer.Subscriber
	// Mirror replicates a remote peer's document into a local one.
	Mirror = peer.Mirror
	// Durability configures a durable peer's journal and snapshots.
	Durability = peer.Durability
	// RecoveryInfo reports what a durable peer found on disk at startup.
	RecoveryInfo = peer.RecoveryInfo
	// PeerOption configures a peer at construction (see OpenPeer).
	PeerOption = peer.Option
	// Delta is one digest-anchored replication record.
	Delta = peer.Delta
	// PeerClient is the typed client-side surface of a peer's HTTP API
	// (Doc, Delta, Hashes, Invoke, Sweep, Push) — what mirrors,
	// coordinators, anti-entropy and the benchmark's callers all route
	// through.
	PeerClient = peer.Client
)

// Distributed entry points.
var (
	// OpenPeer wraps a system as an HTTP peer: options select
	// durability (WithDurability), the outbound HTTP client (WithClient),
	// wire-size caps (WithLimits) and the sweep error policy
	// (WithErrorPolicy).
	OpenPeer = peer.Open
	// WithDurability backs a peer with a write-ahead journal.
	WithDurability = peer.WithDurability
	// WithClient sets a peer's outbound HTTP client.
	WithClient = peer.WithClient
	// WithLimits caps the bodies a peer reads off the wire.
	WithLimits = peer.WithLimits
	// WithErrorPolicy selects how a peer's sweeps react to errors.
	WithErrorPolicy = peer.WithErrorPolicy
	// WithObservability attaches a metrics registry to a peer.
	WithObservability = peer.WithObservability
	// WithTracer attaches a span tracer to a peer.
	WithTracer = peer.WithTracer
	// WithLogger routes a peer's structured logs.
	WithLogger = peer.WithLogger
	// NewPublisher wraps a peer for push mode.
	NewPublisher = peer.NewPublisher
	// NewSubscriber wraps a peer to receive pushes.
	NewSubscriber = peer.NewSubscriber
	// NewPeerClient wraps a peer base URL as a typed client.
	NewPeerClient = peer.NewClient
	// MarshalTree and UnmarshalTree move trees through the XML wire
	// format.
	MarshalTree = peer.MarshalTree
	// UnmarshalTree parses the XML wire format.
	UnmarshalTree = peer.UnmarshalTree
)

// Observability (see internal/obs): stdlib-only metrics, span tracing
// and structured logging, threaded through the engine (RunOptions.Metrics
// and .Tracer), the middleware stack, peers (WithObservability) and the
// journal.
type (
	// Registry is a set of named counters, gauges and histograms;
	// expose it with DebugMux or expvar.Publish.
	Registry = obs.Registry
	// Counter is a monotone event count.
	Counter = obs.Counter
	// Gauge is a last-value metric.
	Gauge = obs.Gauge
	// Histogram is a lock-free power-of-two-bucket latency histogram.
	Histogram = obs.Histogram
	// HistSnapshot is a histogram's point-in-time summary (count, sum,
	// min/max, approximate quantiles).
	HistSnapshot = obs.HistSnapshot
	// Tracer streams trace spans as JSON lines.
	Tracer = obs.Tracer
	// Span is one traced event (sweep, call, merge, sync, push, fsync,
	// snapshot, http), optionally carrying the causal trace/span/parent
	// triplet.
	Span = obs.Span
	// SpanContext is a W3C-style trace/span identity pair, propagated
	// across peers via the traceparent header.
	SpanContext = obs.SpanContext
	// HealthCheck is one named readiness probe for the /readyz endpoint.
	HealthCheck = obs.Check
	// PeerStatus is a peer's /axml/status report: readiness, runtime
	// footprint and per-document convergence watermarks.
	PeerStatus = peer.StatusReport
)

// Observability entry points.
var (
	// NewRegistry returns an empty metrics registry.
	NewRegistry = obs.NewRegistry
	// NewTracer wraps a writer as a JSONL span tracer.
	NewTracer = obs.NewTracer
	// DebugMux serves a registry at /debug/vars plus live pprof under
	// /debug/pprof/, /healthz and /readyz over the given checks (mount
	// on a dedicated listener).
	DebugMux = obs.DebugMux
	// ParseLogLevel maps "debug"/"info"/"warn"/"error" to a slog.Level.
	ParseLogLevel = obs.ParseLevel
	// NewLogger builds a text-handler slog.Logger at a level.
	NewLogger = obs.NewLogger
	// NewTrace starts a fresh trace root; thread it through contexts
	// with SpanInContext so peer calls propagate it.
	NewTrace = obs.NewTrace
	// SpanInContext attaches a span context to a context.
	SpanInContext = obs.ContextWithSpan
	// SpanOutOfContext reads the span context riding a context.
	SpanOutOfContext = obs.SpanFromContext
	// StartRuntimeStats publishes heap/GC/goroutine gauges into a
	// registry on a ticker; call the returned stop to end it.
	StartRuntimeStats = obs.StartRuntimeStats
	// FormatFleetStatus renders peer status reports as the operator's
	// convergence/lag/health table (what cmd/axml-status prints).
	FormatFleetStatus = peer.FormatFleetStatus
)

// Fault injection (testing the fault-tolerance layer without real flaky
// networks; see internal/faults).
type (
	// FaultService injects deterministic, seedable failures and latency
	// into a service.
	FaultService = faults.FaultService
)

// Fault-injection entry points.
var (
	// FlakyHandler fails every k-th HTTP request with 502.
	FlakyHandler = faults.FlakyHandler
	// ErrInjected is wrapped by every injected failure.
	ErrInjected = faults.ErrInjected
)

// Datalog substrate (Example 3.2 and the QSQ companion technique).
type (
	// DatalogProgram is a positive datalog program.
	DatalogProgram = datalog.Program
	// DatalogAtom is a predicate over terms.
	DatalogAtom = datalog.Atom
	// DatalogRule is head :- body.
	DatalogRule = datalog.Rule
	// DatalogTerm is a variable or constant.
	DatalogTerm = datalog.Term
)

// Datalog entry points.
var (
	// TransitiveClosure builds the TC program over a set of edges.
	TransitiveClosure = datalog.TransitiveClosure
	// DatalogDocName names the AXML document of a translated predicate.
	DatalogDocName = datalog.DocName
	// ParseDatalog reads a program in the conventional textual syntax
	// ("tc(X,Y) :- edge(X,Y).").
	ParseDatalog = datalog.Parse
)

// Turing machine embedding (Lemma 3.1).
type (
	// TuringMachine is a deterministic single-tape machine.
	TuringMachine = turing.Machine
	// TuringRule is one transition.
	TuringRule = turing.Rule
)

// Turing entry points.
var (
	// CompileTuring builds the positive AXML system simulating a
	// machine on an input tape.
	CompileTuring = turing.Compile
	// SimulateTuring compiles and runs a machine via the AXML engine.
	SimulateTuring = turing.Simulate
)
