package peer

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Sharding: the coordinator drives N peers that each hold every
// document — N copies, not N× the capacity. The Ring partitions the
// document space instead: peer names are placed on a consistent-hash
// circle (with virtual nodes for balance) and each document is owned by
// the first ReplicationFactor distinct peers clockwise from its hash.
// Adding or removing a peer moves only the documents in its arc — the
// property that makes resharding a fleet of growing documents cheap.
// The Router in front of each peer serves owned documents locally and
// forwards requests for everything else to an owner, so any peer is a
// valid entry point for the whole fleet.

// DefaultVirtualNodes is the per-peer virtual node count when NewRing
// gets 0: high enough that a 10-peer ring balances within a few percent,
// low enough that building the ring stays trivial.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over peer names. Build a new
// one to change membership (cheap; peers hold it by pointer).
type Ring struct {
	points []ringPoint // sorted by hash
	names  []string    // distinct members, sorted
}

type ringPoint struct {
	hash uint64
	name string
}

// NewRing places each named peer at vnodes positions on the circle
// (0 means DefaultVirtualNodes). Duplicate names collapse.
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{}
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		r.names = append(r.names, name)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(fmt.Sprintf("%s#%d", name, i)),
				name: name,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.name < b.name // deterministic on (vanishingly rare) collisions
	})
	sort.Strings(r.names)
	return r
}

func ringHash(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// Peers returns the ring members, sorted.
func (r *Ring) Peers() []string { return append([]string(nil), r.names...) }

// Owners returns the rf distinct peers owning a document: the first
// distinct names clockwise from the document's hash. The first entry is
// the primary. rf < 1 is treated as 1; rf beyond the member count
// returns every member.
func (r *Ring) Owners(doc string, rf int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if rf < 1 {
		rf = 1
	}
	if rf > len(r.names) {
		rf = len(r.names)
	}
	h := ringHash(doc)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, rf)
	seen := make(map[string]bool, rf)
	for n := 0; n < len(r.points) && len(owners) < rf; n++ {
		pt := r.points[(i+n)%len(r.points)]
		if seen[pt.name] {
			continue
		}
		seen[pt.name] = true
		owners = append(owners, pt.name)
	}
	return owners
}

// Primary returns the first owner of a document.
func (r *Ring) Primary(doc string) string {
	o := r.Owners(doc, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// headerForwarded marks a routed request so a stale ring on the next hop
// cannot bounce it around the fleet: a forwarded request is always
// served locally.
const headerForwarded = "X-Axml-Forwarded"

// Router fronts one peer of a sharded fleet: document reads (PathDoc)
// for documents this peer owns are served locally,
// everything else is forwarded to the document's owners in ring order —
// so clients may ask any peer for any document. Non-document endpoints
// (invoke, sweep, hash, push) pass straight through to the local peer.
// Forwards leave on the peer's client (WithClient), like everything else
// the peer sends.
type Router struct {
	// Self is this peer's name on the ring.
	Self string
	// Ring is the fleet membership. Swap by building a new Ring.
	Ring *Ring
	// Resolve maps a peer name to its current base URL. Indirection
	// matters: a crash-restarted peer usually comes back at a new
	// address, and routing must follow it without rebuilding the ring.
	// Returning "" marks the peer unreachable (the router tries the next
	// owner).
	Resolve func(name string) string
	// ReplicationFactor is the owner-set size per document; 0 means 1.
	ReplicationFactor int

	peer  *Peer
	local http.Handler
}

// NewRouter wraps a peer's handler for fleet routing.
func NewRouter(p *Peer, self string, ring *Ring, resolve func(string) string, rf int) *Router {
	return &Router{
		Self: self, Ring: ring, Resolve: resolve, ReplicationFactor: rf,
		peer: p, local: p.Handler(),
	}
}

// Owns reports whether this peer is in a document's owner set.
func (rt *Router) Owns(doc string) bool {
	for _, o := range rt.Ring.Owners(doc, rt.rf()) {
		if o == rt.Self {
			return true
		}
	}
	return false
}

func (rt *Router) rf() int {
	if rt.ReplicationFactor < 1 {
		return 1
	}
	return rt.ReplicationFactor
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	doc, read := strings.CutPrefix(r.URL.Path, PathDoc)
	if !read || doc == "" || rt.Owns(doc) || r.Header.Get(headerForwarded) != "" {
		rt.local.ServeHTTP(w, r)
		return
	}
	rt.forward(w, r, doc)
}

// forward relays the request to the document's owners in ring order,
// answering with the first owner that responds at all (any status — a
// 404 from an owner is an authoritative answer, not a routing failure).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, doc string) {
	var lastErr error
	for _, owner := range rt.Ring.Owners(doc, rt.rf()) {
		base := rt.Resolve(owner)
		if base == "" {
			continue
		}
		u := base + r.URL.Path
		if r.URL.RawQuery != "" {
			u += "?" + r.URL.RawQuery
		}
		req, err := newRequest(r.Context(), r.Method, u, r.Body)
		if err != nil {
			lastErr = err
			continue
		}
		// The caller's headers travel, its traceparent included: the router
		// sits outside instrument, so no span of our own rides the context.
		req.Header = r.Header.Clone()
		req.Header.Set(headerForwarded, rt.Self)
		// A relay keeps its own Do: method, body and status are the caller's
		// and the owner's, not Client.call's to judge.
		resp, err := rt.peer.remote(base, nil).httpc().Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		rt.peer.metrics.Counter("peer.route.forwarded").Inc()
		// The read's ETag and IM name what the body is.
		for _, k := range [...]string{"Content-Type", headerETag, headerIM} {
			if v := resp.Header.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, io.LimitReader(resp.Body, rt.peer.wireLimit()+1))
		resp.Body.Close()
		return
	}
	rt.peer.metrics.Counter("peer.route.unroutable").Inc()
	msg := fmt.Sprintf("no reachable owner for document %q", doc)
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	http.Error(w, msg, http.StatusBadGateway)
}
