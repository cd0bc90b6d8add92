package peer

import (
	"log/slog"
	"net/http"

	"axml/internal/core"
	"axml/internal/obs"
)

// Option configures a peer at construction. Options keep Open's signature
// stable as the peer grows knobs — adding one never breaks existing
// callers, unlike positional parameters.
type Option func(*config)

// config collects the option-set state applied by Open.
type config struct {
	durability  Durability
	client      *http.Client
	maxWire     int64
	errorPolicy core.ErrorPolicy
	metrics     *obs.Registry
	tracer      *obs.Tracer
	logger      *slog.Logger
}

// WithDurability backs the peer with a write-ahead journal and snapshots
// in d.Dir (see Durability). A zero-valued Durability (empty Dir) leaves
// the peer in-memory.
func WithDurability(d Durability) Option {
	return func(c *config) { c.durability = d }
}

// WithClient sets the HTTP client for everything the peer itself sends
// (Peer.remote): mirror syncs and anti-entropy probes whose Mirror has no
// client of its own, and push deliveries. Nil means Client's shared
// default. A RemoteService carries its own client.
func WithClient(client *http.Client) Option {
	return func(c *config) { c.client = client }
}

// WithLimits caps the bodies this peer reads: the requests it serves (its
// incoming invocation envelopes in particular) and the answers to
// everything it sends through Peer.remote; 0 keeps MaxWireBytes.
func WithLimits(maxWireBytes int64) Option {
	return func(c *config) { c.maxWire = maxWireBytes }
}

// WithErrorPolicy selects how the peer's sweeps react to service errors;
// the zero value is core.FailFast.
func WithErrorPolicy(pol core.ErrorPolicy) Option {
	return func(c *config) { c.errorPolicy = pol }
}

// WithObservability attaches a metrics registry: the peer's HTTP
// endpoints (peer.http.*), sweeps (engine.* via the embedded engine),
// mirror/anti-entropy/push activity (peer.*) and — for durable peers —
// the journal (journal.*) all record into it. Serve it with
// obs.DebugMux. Nil disables metric collection (the default).
func WithObservability(reg *obs.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// WithTracer attaches a span tracer: sweeps, calls and merges from the
// peer's local runs, plus mirror syncs and push deliveries, emit
// obs.Span lines to it. Nil disables tracing (the default).
func WithTracer(tr *obs.Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// WithLogger routes the peer's structured logs (recovery summaries at
// Info, sweep outcomes at Debug, journaling failures at Error) to l.
// Nil discards them — the library never writes to a global logger on
// its own.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}
