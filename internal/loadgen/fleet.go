package loadgen

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/tree"
)

// FleetConfig sizes an in-process benchmark fleet.
type FleetConfig struct {
	// Peers is the fleet size (default 3).
	Peers int
	// Docs is the document universe per peer (default 8).
	Docs int
	// Entries is each document's initial size in store items (default 32).
	Entries int
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Peers <= 0 {
		c.Peers = 3
	}
	if c.Docs <= 0 {
		c.Docs = 8
	}
	if c.Entries <= 0 {
		c.Entries = 32
	}
	return c
}

// Fleet is a set of in-process peers listening on loopback — the
// self-contained target `axml-loadgen -fleet N` and the smoke test
// hammer, so capacity numbers never depend on an external deployment.
// Every peer serves the same generated system: documents d00..dNN of
// store items, a Lookup service matching over d00, and an "ingest"
// push subscription attached to an inbox document.
type Fleet struct {
	// URLs are the peers' base URLs, index-aligned with Peers.
	URLs []string
	// Peers are the live peers (for direct inspection in tests).
	Peers []*peer.Peer
	// Registries are the peers' metric registries, index-aligned; hand
	// them to Runner.Registries for server-side correlation.
	Registries []*obs.Registry

	servers []*http.Server
}

// DocNames returns the fleet's document universe, hottest first.
func (f *Fleet) DocNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("d%02d", i)
	}
	return out
}

// fleetSystemSource generates the shared system: Docs store documents of
// Entries items each, an inbox for push ingest, and a Lookup service.
func fleetSystemSource(docs, entries int) string {
	var b strings.Builder
	for d := 0; d < docs; d++ {
		fmt.Fprintf(&b, "doc d%02d = store{", d)
		for e := 0; e < entries; e++ {
			if e > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `item{id{"k%02d-%04d"},val{"v%04d"}}`, d, e, e)
		}
		b.WriteString("}\n")
	}
	b.WriteString("doc inbox = inbox\n")
	b.WriteString(`func Lookup = hit{id{$k},val{$v}} :- d00/store{item{id{$k},val{$v}}}` + "\n")
	return b.String()
}

// StartFleet boots cfg.Peers loopback peers, each with its own system,
// registry, push subscriber and /debug/vars endpoint. Close the fleet
// when done.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	src := fleetSystemSource(cfg.Docs, cfg.Entries)
	f := &Fleet{}
	for i := 0; i < cfg.Peers; i++ {
		sys, err := core.ParseSystem(src)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("loadgen: fleet system: %w", err)
		}
		reg := obs.NewRegistry()
		p, _, err := peer.Open(fmt.Sprintf("fleet%d", i), sys, peer.WithObservability(reg))
		if err != nil {
			f.Close()
			return nil, err
		}
		sub := peer.NewSubscriber(p)
		var inboxRoot *tree.Node
		p.System(func(s *core.System) { inboxRoot = s.Document("inbox").Root })
		sub.Register("ingest", "inbox", inboxRoot)

		mux := http.NewServeMux()
		mux.Handle(peer.PathPush, sub.Handler())
		dbg := obs.DebugMux(reg, p.ReadyChecks()...)
		mux.Handle("/debug/", dbg)
		mux.Handle("/healthz", dbg)
		mux.Handle("/readyz", dbg)
		mux.Handle("/", p.Handler())

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close

		f.URLs = append(f.URLs, "http://"+ln.Addr().String())
		f.Peers = append(f.Peers, p)
		f.Registries = append(f.Registries, reg)
		f.servers = append(f.servers, srv)
	}
	return f, nil
}

// Close shuts every peer's HTTP server down.
func (f *Fleet) Close() {
	for _, s := range f.servers {
		s.Close()
	}
}
