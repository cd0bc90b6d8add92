// Command axml-peer serves a system file as an AXML peer over HTTP: its
// services become Web services other peers can call, its documents are
// fetchable, and a coordinator can drive it toward a distributed fixpoint
// (endpoints under /axml/, see internal/peer).
//
// Remote services used by the local documents are declared with -remote:
//
//	axml-peer -listen :8080 -system portal.axml \
//	    -remote GetRating=http://ratings.example:8081
//
// Every remote binding is wrapped in the fault-tolerance stack
// Breaker{Retry{Timeout{...}}} configured by -retries, -retry-base,
// -timeout, -breaker-failures and -breaker-cooldown; -degrade makes local
// sweeps quarantine failing calls and keep going instead of aborting.
//
// With -data-dir the peer is durable: every document mutation is appended
// to a CRC-framed write-ahead journal in that directory (fsync batching
// via -fsync, snapshot compaction via -snapshot-every), and on startup
// any state a previous incarnation persisted there is recovered — so the
// process survives kill -9 and rejoins its fleet at the point it died,
// re-deriving anything lost in the torn tail by re-sweeping.
//
// Replication: -mirror DOC=URL keeps a local replica of a remote peer's
// document current through conditional reads of /axml/doc (only the
// origin's graft records since the replica's state travel, as a 226), and
// -anti-entropy-every runs a periodic repair pass that re-syncs any
// replica whose digest drifted.
//
// Observability: -debug-addr starts a second listener serving
// expvar-compatible metrics at /debug/vars (the peer's counters under
// the "axml" key: engine.*, mw.*, peer.*, journal.*) and the live pprof
// profiles under /debug/pprof/. -trace-out streams one JSON span per
// line (sweeps, calls, merges, syncs, fsyncs — summarize with
// scripts/trace-summarize.sh); -trace-sample keeps every n-th call span
// when full call traces are too hot. -log-level picks the slog level of
// the peer's structured logs on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/syntax"
)

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	systemFile := flag.String("system", "", "system file to serve")
	name := flag.String("name", "peer", "peer name for logs")
	retries := flag.Int("retries", 3, "attempts per remote invocation (1 disables retry)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff (doubles per retry, jittered)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline for remote invocations, mirror syncs and push deliveries (0 disables)")
	breakerFailures := flag.Int("breaker-failures", 5, "consecutive failures opening the circuit breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "open period before the breaker half-opens")
	degrade := flag.Bool("degrade", false, "quarantine failing calls during sweeps instead of aborting")
	dataDir := flag.String("data-dir", "", "directory for the write-ahead journal and snapshots (empty = in-memory peer)")
	snapshotEvery := flag.Int("snapshot-every", peer.DefaultSnapshotEvery, "journal records between snapshot compactions (negative disables)")
	fsync := flag.Int("fsync", 1, "fsync the journal every n appended records (1 = every record; larger n batches, risking at most n-1 records that a re-sweep re-derives)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this extra address (empty = off)")
	traceOut := flag.String("trace-out", "", "append JSON trace spans, one per line, to this file (empty = off)")
	traceSample := flag.Int("trace-sample", 1, "keep one call span in every n (sweep/merge spans are never sampled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	antiEntropyEvery := flag.Duration("anti-entropy-every", 0, "run an anti-entropy repair pass over the registered mirrors at this interval (0 disables)")
	var remotes remoteFlags
	flag.Var(&remotes, "remote", "remote service binding NAME=URL (repeatable)")
	var mirrors mirrorFlags
	flag.Var(&mirrors, "mirror", "replicate document DOC=URL from the peer at URL (repeatable)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "axml-peer:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	if *systemFile == "" {
		fmt.Fprintln(os.Stderr, "axml-peer: -system is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*systemFile)
	if err != nil {
		fatal(err)
	}
	// Build without the final validation: remote bindings complete the
	// service set first.
	parsed, err := syntax.ParseSystem(string(data))
	if err != nil {
		fatal(err)
	}

	metrics := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tracer = obs.NewTracer(f)
		tracer.SetSample(*traceSample)
	}

	sys := core.NewSystem()
	harden := core.HardenOptions{
		Attempts:        *retries,
		BaseDelay:       *retryBase,
		BreakerOpensAt:  *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		Metrics:         metrics,
	}
	// The per-attempt deadline lives in the one HTTP client the remotes
	// and everything the peer itself sends (peer.WithClient: mirror syncs,
	// anti-entropy probes, push deliveries) share. Clients share
	// http.DefaultTransport, so the keep-alive pool is shared too.
	var client *http.Client
	if *timeout > 0 {
		client = &http.Client{Timeout: *timeout}
	}
	for _, r := range remotes {
		svc := core.Harden(&peer.RemoteService{Name: r.name, URL: r.url, Client: client}, harden)
		if err := sys.AddService(svc); err != nil {
			fatal(err)
		}
	}
	for _, q := range parsed.Funcs {
		if err := sys.AddQuery(q); err != nil {
			fatal(err)
		}
	}
	for _, d := range parsed.Docs {
		if err := sys.AddDocument(d); err != nil {
			fatal(err)
		}
	}
	if err := sys.Validate(); err != nil {
		fatal(err)
	}
	policy := core.FailFast
	if *degrade {
		policy = core.Degrade
	}
	// Mirrored documents that the system file does not declare get an
	// empty replica seed; the first sync adopts the remote root marking
	// and replication then fills them by LUB merge.
	for _, m := range mirrors.remoteFlags {
		if sys.Document(m.name) == nil {
			if err := sys.AddDocument(peer.NewReplicaDoc(m.name, m.name)); err != nil {
				fatal(err)
			}
		}
	}
	p, rec, err := peer.Open(*name, sys,
		peer.WithDurability(peer.Durability{
			Dir:           *dataDir,
			SnapshotEvery: *snapshotEvery,
			SyncEvery:     *fsync,
		}),
		peer.WithClient(client),
		peer.WithErrorPolicy(policy),
		peer.WithObservability(metrics),
		peer.WithTracer(tracer),
		peer.WithLogger(logger),
	)
	if err != nil {
		fatal(err)
	}
	for _, m := range mirrors.remoteFlags {
		p.AddMirror(&peer.Mirror{Remote: m.url, RemoteDoc: m.name, LocalDoc: m.name})
		logger.Info("mirroring", "peer", *name, "doc", m.name, "remote", m.url)
	}
	if *antiEntropyEvery > 0 {
		go func() {
			for range time.Tick(*antiEntropyEvery) {
				if n, err := p.AntiEntropy(context.Background()); err != nil {
					logger.Warn("anti-entropy", "peer", *name, "resynced", n, "err", err)
				}
			}
		}()
	}
	if *dataDir != "" {
		logger.Info("durable",
			"peer", *name, "dir", *dataDir, "snapshot_seq", rec.SnapshotSeq,
			"replayed", rec.Replayed, "torn", rec.Torn)
	}
	// Runtime telemetry: heap, GC pause and goroutine gauges join the
	// peer's own counters in the registry (and thus /debug/vars).
	stopRuntime := obs.StartRuntimeStats(metrics, 10*time.Second)
	defer stopRuntime()
	if *debugAddr != "" {
		// The debug server gets its own listener on purpose: pprof and
		// the metric dump expose internals that do not belong on the
		// peer's public port. /healthz and /readyz live here too.
		go func() {
			logger.Info("debug server", "peer", *name, "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux(metrics, p.ReadyChecks()...)); err != nil {
				logger.Error("debug server", "err", err)
			}
		}()
	}
	logger.Info("serving",
		"peer", *name, "system", *systemFile, "listen", *listen,
		"docs", fmt.Sprint(sys.DocNames()), "services", fmt.Sprint(sys.FuncNames()))
	fatal(http.ListenAndServe(*listen, p.Handler()))
}

type remoteBinding struct{ name, url string }

type remoteFlags []remoteBinding

func (r *remoteFlags) String() string { return fmt.Sprintf("%v", []remoteBinding(*r)) }

func (r *remoteFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want NAME=URL, got %q", v)
	}
	*r = append(*r, remoteBinding{name: name, url: url})
	return nil
}

// mirrorFlags are bindings whose name becomes a local document, so it
// must be a name the wire can carry (peer.Open would refuse it later).
type mirrorFlags struct{ remoteFlags }

func (m *mirrorFlags) Set(v string) error {
	if err := m.remoteFlags.Set(v); err != nil {
		return err
	}
	return peer.CheckDocName(m.remoteFlags[len(m.remoteFlags)-1].name)
}
