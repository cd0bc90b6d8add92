package peer

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"axml/internal/core"
)

func fleetNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer%02d", i)
	}
	return names
}

func TestRingOwners(t *testing.T) {
	r := NewRing(fleetNames(10), 0)
	for i := 0; i < 200; i++ {
		doc := fmt.Sprintf("doc%d", i)
		owners := r.Owners(doc, 3)
		if len(owners) != 3 {
			t.Fatalf("%s: %d owners", doc, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("%s: duplicate owner %s", doc, o)
			}
			seen[o] = true
		}
		// Determinism: a rebuilt ring places the same owners.
		again := NewRing(fleetNames(10), 0).Owners(doc, 3)
		for j := range owners {
			if owners[j] != again[j] {
				t.Fatalf("%s: owners not deterministic: %v vs %v", doc, owners, again)
			}
		}
		if r.Primary(doc) != owners[0] {
			t.Fatalf("%s: primary %s not first owner %v", doc, r.Primary(doc), owners)
		}
	}
	// rf clamps to the member count; rf < 1 means 1.
	if got := r.Owners("x", 99); len(got) != 10 {
		t.Fatalf("rf over members: %d owners", len(got))
	}
	if got := r.Owners("x", 0); len(got) != 1 {
		t.Fatalf("rf 0: %d owners", len(got))
	}
	if got := NewRing(nil, 0).Owners("x", 2); got != nil {
		t.Fatalf("empty ring owners: %v", got)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(fleetNames(10), 0)
	counts := map[string]int{}
	const docs = 2000
	for i := 0; i < docs; i++ {
		counts[r.Primary(fmt.Sprintf("doc%d", i))]++
	}
	for _, name := range fleetNames(10) {
		if counts[name] == 0 {
			t.Fatalf("peer %s owns nothing: %v", name, counts)
		}
		// With 64 virtual nodes the load should stay within a loose 3× of
		// the fair share — this guards against a broken hash, not for a
		// tight balance bound.
		if fair := docs / 10; counts[name] > 3*fair {
			t.Fatalf("peer %s owns %d of %d docs", name, counts[name], docs)
		}
	}
}

// TestRingMinimalMovement: removing a member must not move documents
// between surviving peers — the consistent-hashing property that makes
// resharding cheap.
func TestRingMinimalMovement(t *testing.T) {
	before := NewRing(fleetNames(10), 0)
	after := NewRing(fleetNames(10)[:9], 0) // peer09 left
	moved := 0
	for i := 0; i < 500; i++ {
		doc := fmt.Sprintf("doc%d", i)
		was, is := before.Primary(doc), after.Primary(doc)
		if was == "peer09" {
			moved++
			continue // its documents must land somewhere else
		}
		if was != is {
			t.Fatalf("%s moved %s -> %s though its owner survived", doc, was, is)
		}
	}
	if moved == 0 {
		t.Fatal("suspicious: departed peer owned nothing")
	}
}

// newShardedFleet builds n peers fronted by routers sharing one ring and
// a name→URL resolver. Documents live only on their owners; every peer
// answers for every document by forwarding.
func newShardedFleet(t *testing.T, n, rf int, docs []string) (ring *Ring, urls map[string]string, peers map[string]*Peer) {
	t.Helper()
	names := fleetNames(n)
	ring = NewRing(names, 0)
	urls = make(map[string]string, n)
	peers = make(map[string]*Peer, n)
	resolve := func(name string) string { return urls[name] }
	for _, name := range names {
		sys := core.NewSystem()
		p := mustOpen(name, sys)
		peers[name] = p
		rt := NewRouter(p, name, ring, resolve, rf)
		srv := httptest.NewServer(rt)
		t.Cleanup(srv.Close)
		urls[name] = srv.URL
	}
	for _, doc := range docs {
		for _, owner := range ring.Owners(doc, rf) {
			peers[owner].System(func(s *core.System) {
				if err := s.AddDocument(NewReplicaDoc(doc, "d")); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	return ring, urls, peers
}

func TestRouterForwardsUnownedDocs(t *testing.T) {
	docs := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	ring, urls, peers := newShardedFleet(t, 4, 2, docs)

	for _, doc := range docs {
		owners := ring.Owners(doc, 2)
		peers[owners[0]].System(func(s *core.System) {
			root := s.Document(doc).Root
			root.Children = append(root.Children, core.MustParseSystem(
				`doc x = d{data{"`+doc+`"}}`).Document("x").Root.Children...)
			s.Touch(doc)
		})
		// Every peer — owner or not — serves the document.
		for name, base := range urls {
			resp, err := http.Get(base + PathDoc + doc)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("peer %s doc %s: %d", name, doc, resp.StatusCode)
			}
			n, err := UnmarshalTree(body)
			if err != nil {
				t.Fatalf("peer %s doc %s: %v", name, doc, err)
			}
			// Only the primary was written; replicas answer their own
			// (possibly empty) copy — both are authoritative owners. A
			// non-owner must have forwarded to the primary in ring order.
			isOwner := false
			for _, o := range ring.Owners(doc, 2) {
				if o == name {
					isOwner = true
				}
			}
			if !isOwner && len(n.Children) == 0 {
				t.Fatalf("peer %s forwarded doc %s but got empty tree", name, doc)
			}
		}
	}
}

func TestRouterDeltaForwarding(t *testing.T) {
	docs := []string{"alpha", "beta", "gamma"}
	ring, urls, peers := newShardedFleet(t, 4, 1, docs)
	// With rf=1 exactly one peer holds each doc; ask some other peer for
	// a delta and it must forward.
	doc := docs[0]
	owner := ring.Primary(doc)
	growDoc(peers[owner], doc, `item{"x"}`)
	var outsider string
	for name := range urls {
		if name != owner {
			outsider = name
			break
		}
	}
	d, err := NewClient(urls[outsider], nil).Delta(t.Context(), doc, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != DeltaFull || d.Full == nil || len(d.Full.Children) == 0 {
		t.Fatalf("forwarded delta: %+v", d)
	}
	// Anchored follow-up across the same forwarding path.
	growDoc(peers[owner], doc, `item{"y"}`)
	d2, err := NewClient(urls[outsider], nil).Delta(t.Context(), doc, d.To)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Mode != DeltaLog {
		t.Fatalf("anchored forwarded delta answered %q", d2.Mode)
	}
}

func TestRouterOwnerFailover(t *testing.T) {
	docs := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	ring, urls, _ := newShardedFleet(t, 4, 2, docs)
	// Find a doc whose primary is not its only owner, kill the primary's
	// URL, and ask a non-owner: the router must fail over to the replica.
	for _, doc := range docs {
		owners := ring.Owners(doc, 2)
		var outsider string
		for name := range urls {
			if name != owners[0] && name != owners[1] {
				outsider = name
				break
			}
		}
		saved := urls[owners[0]]
		urls[owners[0]] = "" // resolver now reports the primary unreachable
		resp, err := http.Get(urls[outsider] + PathDoc + doc)
		urls[owners[0]] = saved
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("doc %s with dead primary: %d", doc, resp.StatusCode)
		}
	}
}

func TestRouterNoOwnerReachable(t *testing.T) {
	docs := []string{"alpha"}
	ring, urls, _ := newShardedFleet(t, 3, 1, docs)
	owner := ring.Primary("alpha")
	var outsider string
	for name := range urls {
		if name != owner {
			outsider = name
			break
		}
	}
	saved := urls[owner]
	urls[owner] = ""
	resp, err := http.Get(urls[outsider] + PathDoc + "alpha")
	urls[owner] = saved
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unroutable doc answered %d", resp.StatusCode)
	}
}

// TestRouterForwardLoopProtection: a forwarded request is served locally
// even by a peer that does not own the document (e.g. its ring is ahead
// of the sender's), never bounced onward.
func TestRouterForwardLoopProtection(t *testing.T) {
	_, urls, _ := newShardedFleet(t, 3, 1, []string{"alpha"})
	// Hand-forward to a peer that (almost certainly) does not own alpha,
	// marked as already forwarded: it must answer itself — 404 if it does
	// not hold the doc — rather than re-forward.
	for name, base := range urls {
		req, err := http.NewRequest(http.MethodGet, base+PathDoc+"alpha", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(headerForwarded, "test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("peer %s forwarded request: %d", name, resp.StatusCode)
		}
	}
}
