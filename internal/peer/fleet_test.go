package peer

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"axml/internal/core"
	"axml/internal/faults"
	"axml/internal/obs"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// The fleet acceptance test: ten durable peers partitioned by a
// consistent-hash ring (rf=2), every document's owners cross-mirroring
// each other through digest-anchored deltas, while the chaos loop
// injects message loss (flaky HTTP handlers), crash-restarts
// (journal-backed recovery behind a stable URL), stale delta anchors,
// duplicated deliveries and concurrent divergent writes. Afterwards,
// bounded anti-entropy rounds must drive every owner of every document
// to the digest a single unfailing peer applying the same growths would
// have reached — monotone LUB merges make every one of those faults
// survivable (Theorem 2.1: replay only re-adds information, and the
// join of all growths is order-independent).

const fleetFlakyEvery = 5 // every 5th HTTP request answers 502

// fleetSlot is one stable network identity: the URL outlives its peer,
// whose incarnations come and go behind the swappable handler.
type fleetSlot struct {
	name    string
	dir     string
	handler atomic.Value // http.Handler
	url     string
	peer    *Peer // nil while crashed
	mirrors []*Mirror
}

func (s *fleetSlot) down() bool { return s.peer == nil }

type fleet struct {
	t     *testing.T
	reg   *obs.Registry
	ring  *Ring
	rf    int
	docs  []string
	slots map[string]*fleetSlot
	urls  map[string]string
}

// newFleet starts n slots and boots a durable peer into each.
func newFleet(t *testing.T, n, rf int, docs []string) *fleet {
	t.Helper()
	f := &fleet{
		t:     t,
		reg:   obs.NewRegistry(),
		ring:  NewRing(fleetNames(n), 0),
		rf:    rf,
		docs:  docs,
		slots: make(map[string]*fleetSlot, n),
		urls:  make(map[string]string, n),
	}
	base := t.TempDir()
	for _, name := range fleetNames(n) {
		slot := &fleetSlot{name: name, dir: filepath.Join(base, name)}
		slot.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "booting", http.StatusServiceUnavailable)
		}))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			slot.handler.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		slot.url = srv.URL
		f.slots[name] = slot
		f.urls[name] = slot.url
	}
	// Boot in name order: the flaky handlers fail every k-th request, so
	// keeping every request sequence deterministic keeps the whole test
	// reproducible under one rng seed.
	for _, name := range fleetNames(n) {
		f.boot(f.slots[name])
	}
	return f
}

// boot builds a fresh incarnation of the slot's peer — first boot and
// crash-restart are the same code path; recovery comes from the journal
// in the slot's directory. Ownership and mirrors are re-derived from the
// ring; mirror anchors start empty, so a recovered replica's first sync
// is a full pull (exactly the degradation the protocol promises).
func (f *fleet) boot(slot *fleetSlot) {
	f.t.Helper()
	sys := core.NewSystem()
	for _, doc := range f.docs {
		if f.owns(slot.name, doc) {
			if err := sys.AddDocument(NewReplicaDoc(doc, "d")); err != nil {
				f.t.Fatal(err)
			}
		}
	}
	p, _, err := Open(slot.name, sys,
		WithDurability(Durability{Dir: slot.dir}),
		WithObservability(f.reg))
	if err != nil {
		f.t.Fatal(err)
	}
	slot.peer = p
	slot.mirrors = nil
	for _, doc := range f.docs {
		if !f.owns(slot.name, doc) {
			continue
		}
		for _, other := range f.ring.Owners(doc, f.rf) {
			if other == slot.name {
				continue
			}
			// Owners cross-mirror: growth lands at any owner and the LUB
			// merge spreads it to the rest.
			m := &Mirror{Remote: f.urls[other], RemoteDoc: doc, LocalDoc: doc}
			p.AddMirror(m)
			slot.mirrors = append(slot.mirrors, m)
		}
	}
	rt := NewRouter(p, slot.name, f.ring, func(name string) string {
		if f.slots[name].down() {
			return ""
		}
		return f.urls[name]
	}, f.rf)
	slot.handler.Store(faults.FlakyHandler(rt, fleetFlakyEvery))
}

// crash closes the slot's peer (journal flushed — the suffix a real
// crash would tear off is covered by the journal fault tests) and leaves
// the URL answering 503 until restart.
func (f *fleet) crash(slot *fleetSlot) {
	f.t.Helper()
	slot.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "crashed", http.StatusServiceUnavailable)
	}))
	if err := slot.peer.Close(); err != nil {
		f.t.Fatal(err)
	}
	slot.peer = nil
	slot.mirrors = nil
}

func (f *fleet) owns(name, doc string) bool {
	for _, o := range f.ring.Owners(doc, f.rf) {
		if o == name {
			return true
		}
	}
	return false
}

// hasSecChild reports whether the owner's copy of doc already carries
// the shared sec subtree (the in-place growth target).
func hasSecChild(p *Peer, doc string) bool {
	var ok bool
	p.System(func(s *core.System) {
		for _, c := range s.Document(doc).Root.Children {
			if c.Kind == tree.Label && c.Name == "sec" {
				ok = true
			}
		}
	})
	return ok
}

// TestFleetChaosConvergence is the PR's acceptance gate.
func TestFleetChaosConvergence(t *testing.T) {
	docs := make([]string, 6)
	for i := range docs {
		docs[i] = fmt.Sprintf("doc%d", i)
	}
	f := newFleet(t, 10, 2, docs)
	rng := rand.New(rand.NewSource(0xf1ee7))
	ctx := context.Background()

	// reference[doc] is the state a single unfailing peer applying every
	// growth would hold, built with the same append-and-reduce primitive
	// the peers use. The join of all growths is order-independent, so
	// applying them here in schedule order is the distributed fixpoint.
	reference := make(map[string]*tree.Node, len(docs))
	for _, doc := range docs {
		reference[doc] = reduced(t, `d`)
	}
	applied := 0
	refGrow := func(doc, src string) {
		root := reference[doc]
		root.Children = append(root.Children, syntax.MustParseDocument(src))
		tree.InvalidateDigestAll(root)
		subsume.ReduceInPlace(root)
	}
	refGrowIn := func(doc, src string) {
		root := reference[doc]
		for _, c := range root.Children {
			if c.Kind == tree.Label && c.Name == "sec" {
				c.Children = append(c.Children, syntax.MustParseDocument(src))
				break
			}
		}
		tree.InvalidateDigestAll(root)
		subsume.ReduceInPlace(root)
	}

	const chaosRounds = 60
	for round := 0; round < chaosRounds; round++ {
		// Growth: a random owner of a random document learns something
		// new — sometimes deep inside the shared sec subtree, so that
		// concurrently diverged owners exchange graft records whose paths
		// miss and force the full-pull fallback.
		doc := docs[rng.Intn(len(docs))]
		owners := f.ring.Owners(doc, f.rf)
		if slot := f.slots[owners[rng.Intn(len(owners))]]; !slot.down() {
			switch {
			case !hasSecChild(slot.peer, doc):
				growDoc(slot.peer, doc, `sec`)
				refGrow(doc, `sec`)
			case rng.Intn(3) == 0:
				src := fmt.Sprintf(`n{"v%d"}`, applied)
				growIn(slot.peer, doc, "sec", src)
				refGrowIn(doc, src)
			default:
				src := fmt.Sprintf(`e{t{"v%d"},s{"%d"}}`, applied, round)
				growDoc(slot.peer, doc, src)
				refGrow(doc, src)
			}
			applied++
		}

		// Fault of the round.
		names := fleetNames(10)
		victim := f.slots[names[rng.Intn(len(names))]]
		switch rng.Intn(6) {
		case 0: // crash (journal recovery owes us the state back)
			if !victim.down() {
				f.crash(victim)
			}
		case 1, 2: // restart
			if victim.down() {
				f.boot(victim)
			}
		case 3: // stale anchor: a replica claims a digest the remote never served
			if !victim.down() && len(victim.mirrors) > 0 {
				victim.mirrors[rng.Intn(len(victim.mirrors))].lastRemote = "feedfacefeedface"
			}
		case 4: // duplicated delivery: sync the same mirror twice back to back
			if !victim.down() && len(victim.mirrors) > 0 {
				m := victim.mirrors[rng.Intn(len(victim.mirrors))]
				m.Sync(ctx, victim.peer) // errors are the point of the chaos
				m.Sync(ctx, victim.peer)
			}
		}

		// A partial anti-entropy pass: some peers catch up, through the
		// flaky handlers, tolerating every error.
		for _, name := range names {
			if slot := f.slots[name]; !slot.down() && rng.Intn(2) == 0 {
				slot.peer.AntiEntropy(ctx)
			}
		}
	}
	if applied == 0 {
		t.Fatal("chaos schedule never grew anything")
	}

	// Recovery: restart whatever is still down, then bounded anti-entropy
	// rounds (still through the flaky handlers) until every owner of
	// every document matches the single-peer reference digest.
	for _, name := range fleetNames(10) {
		if slot := f.slots[name]; slot.down() {
			f.boot(slot)
		}
	}
	refDigest := make(map[string]string, len(docs))
	for _, doc := range docs {
		refDigest[doc] = canonicalHex(reference[doc])
	}
	converged := false
	const repairRounds = 80
	for round := 0; round < repairRounds && !converged; round++ {
		converged = true
		for _, doc := range docs {
			for _, owner := range f.ring.Owners(doc, f.rf) {
				if docHash(f.slots[owner].peer, doc) != refDigest[doc] {
					converged = false
				}
			}
		}
		if converged {
			break
		}
		// Shuffle the repair order each round: the injected faults fail
		// every k-th request deterministically, and a fixed order could
		// phase-lock one mirror's requests onto the failing slots forever.
		order := fleetNames(10)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, name := range order {
			f.slots[name].peer.AntiEntropy(ctx)
		}
	}
	if !converged {
		for _, doc := range docs {
			for _, owner := range f.ring.Owners(doc, f.rf) {
				slot := f.slots[owner]
				var local *tree.Node
				slot.peer.System(func(s *core.System) { local = s.Document(doc).Root.Copy() })
				t.Logf("%s@%s: %s (want %s) local⊇ref=%v ref⊇local=%v mirrors=%d",
					doc, owner, canonicalHex(local), refDigest[doc],
					subsume.Subsumed(reference[doc], local),
					subsume.Subsumed(local, reference[doc]), len(slot.mirrors))
				if canonicalHex(local) != refDigest[doc] {
					t.Logf("  local: %s", local.CanonicalString())
					t.Logf("  ref:   %s", reference[doc].CanonicalString())
					for _, m := range slot.mirrors {
						if m.RemoteDoc == doc {
							t.Logf("  mirror anchor=%q remote=%s", m.lastRemote, m.Remote)
						}
					}
				}
			}
		}
		t.Fatalf("fleet did not reach the single-peer fixpoint digest after %d repair rounds", repairRounds)
	}

	// The chaos actually exercised the delta path, its fallbacks and the
	// fault injection — a silent all-full-pull run would also converge,
	// but would not be testing this PR.
	if f.reg.Counter("peer.mirror.deltas").Value() == 0 {
		t.Fatal("no delta sync ever succeeded")
	}
	if f.reg.Counter("peer.mirror.delta_fallbacks").Value() == 0 {
		t.Fatal("no diverged record ever forced a full-pull fallback")
	}
	if f.reg.Counter("peer.antientropy.errors").Value() == 0 {
		t.Fatal("fault injection never bit an anti-entropy pass")
	}

	// Convergence telemetry saw the chaos: replication advanced local
	// digests, and at least one divergence→convergence interval closed
	// into the lag histogram (the anti-entropy probes open the lag clock
	// when they observe a moved origin digest, the catching-up sync
	// closes it).
	if f.reg.Counter("peer.converge.advances").Value() == 0 {
		t.Fatal("no replication advance was ever recorded")
	}
	if f.reg.Histogram("peer.converge.lag_ns").Snapshot().Count == 0 {
		t.Fatal("no replication lag interval was ever measured")
	}

	// The operator surface renders: every peer's status report lands in
	// one fleet table with the converged documents on it.
	var reports []StatusReport
	for _, name := range fleetNames(10) {
		reports = append(reports, f.slots[name].peer.Status())
	}
	table := FormatFleetStatus(reports, nil)
	if !strings.Contains(table, "PEER") || !strings.Contains(table, docs[0]) {
		t.Fatalf("fleet status table did not render:\n%s", table)
	}

	// Every converged doc serves through any fleet member (forwarding),
	// modulo flaky 502s — retry a few times.
	for _, doc := range docs {
		asker := f.slots[fleetNames(10)[0]]
		var resp *http.Response
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			resp, err = http.Get(asker.url + PathDoc + doc)
			if err == nil && resp.StatusCode == http.StatusOK {
				break
			}
			if err == nil {
				resp.Body.Close()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("doc %s unreachable through the fleet: %d", doc, resp.StatusCode)
		}
	}
}

// growDocBatch appends many subtrees in one locked pass (one append, one
// journal flush) — test setup for large documents.
func growDocBatch(p *Peer, doc string, srcs []string) {
	forest := make(tree.Forest, len(srcs))
	for i, src := range srcs {
		forest[i] = syntax.MustParseDocument(src)
	}
	p.System(func(s *core.System) {
		if _, err := s.Append(doc, s.Document(doc).Root, forest); err != nil {
			panic(err)
		}
	})
}

// TestDeltaWireBytesSublinear pins the protocol's point: once a replica
// is anchored, the bytes for one more increment do not grow with the
// document. A full pull is linear in the doc; the measured delta must
// stay a small fraction of it at two doc sizes an order of magnitude
// apart.
func TestDeltaWireBytesSublinear(t *testing.T) {
	reg := obs.NewRegistry()
	remote, _, err := Open("store", core.MustParseSystem(`doc log = log`),
		WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()

	local := mustOpen("replica", core.NewSystem())
	local.System(func(s *core.System) {
		if err := s.AddDocument(NewReplicaDoc("log", "log")); err != nil {
			t.Fatal(err)
		}
	})
	m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
	ctx := context.Background()

	// A sync and a full pull are both reads of the document.
	docOut := reg.Counter("peer.http.bytes_out.doc")

	grown := 0
	entry := func(i int) string {
		return fmt.Sprintf(`entry{id{"%06d"},body{"payload-%06d"}}`, i, i)
	}
	measure := func(size int) (deltaBytes, fullBytes int64) {
		var batch []string
		for ; grown < size; grown++ {
			batch = append(batch, entry(grown))
		}
		growDocBatch(remote, "log", batch)
		if _, err := m.Sync(ctx, local); err != nil { // catch up (full or a long log)
			t.Fatal(err)
		}
		// The measured step: one small growth against an anchored replica.
		growDoc(remote, "log", entry(grown))
		grown++
		before := docOut.Value()
		if _, err := m.Sync(ctx, local); err != nil {
			t.Fatal(err)
		}
		deltaBytes = docOut.Value() - before
		before = docOut.Value()
		if _, err := NewClient(srv.URL, nil).Doc(ctx, "log"); err != nil {
			t.Fatal(err)
		}
		fullBytes = docOut.Value() - before
		if docHash(local, "log") != docHash(remote, "log") {
			t.Fatal("replica diverged from remote")
		}
		return deltaBytes, fullBytes
	}

	dSmall, fSmall := measure(50)
	dBig, fBig := measure(500)
	t.Logf("50 entries: delta %dB vs full %dB; 500 entries: delta %dB vs full %dB",
		dSmall, fSmall, dBig, fBig)
	if dSmall == 0 || dBig == 0 {
		t.Fatal("measured sync read nothing")
	}
	if dSmall*5 > fSmall {
		t.Fatalf("delta %dB not sublinear vs %dB full at 50 entries", dSmall, fSmall)
	}
	if dBig*20 > fBig {
		t.Fatalf("delta %dB not sublinear vs %dB full at 500 entries", dBig, fBig)
	}
	// The increment cost must not scale with the document: 10× the doc,
	// same-ballpark delta.
	if dBig > 3*dSmall {
		t.Fatalf("delta grew with doc size: %dB at 50 entries, %dB at 500", dSmall, dBig)
	}
	if fBig < 5*fSmall {
		t.Fatalf("suspicious: full pull did not grow with the doc (%dB vs %dB)", fSmall, fBig)
	}
}
