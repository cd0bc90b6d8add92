package peer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"axml/internal/core"
	"axml/internal/faults"
	"axml/internal/journal"
	"axml/internal/obs"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// durableSeed is the system definition a durable peer restarts from: the
// seed is rebuilt from source on every start, recovery merges persisted
// state over it.
const durableSeed = `
doc notes = log{entry{"boot"}}
func Annotate = mark{$x} :- input/input{$x}
`

func newDurablePeer(t *testing.T, dir string, d Durability) (*Peer, RecoveryInfo) {
	t.Helper()
	d.Dir = dir
	p, info, err := Open("durable", core.MustParseSystem(durableSeed), WithDurability(d))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, info
}

// growNotes appends a fresh entry to the notes document through the
// peer's locked access, the way mirror syncs and push deliveries mutate.
func growNotes(t *testing.T, p *Peer, text string) {
	t.Helper()
	p.System(func(s *core.System) {
		doc := s.Document("notes")
		doc.Root.Children = append(doc.Root.Children,
			&tree.Node{Kind: tree.Label, Name: "entry", Children: []*tree.Node{tree.NewValue(text)}})
		s.Touch("notes")
	})
}

// appendNotes appends a fresh entry to the notes document through
// System.Append, the path invocations, mirror syncs and push deliveries
// take: the journal records it as a graft, where growNotes' by-hand edit
// is journaled as the whole document state.
func appendNotes(t *testing.T, p *Peer, text string) {
	t.Helper()
	var err error
	p.System(func(s *core.System) {
		_, err = s.Append("notes", s.Document("notes").Root,
			tree.Forest{tree.NewLabel("entry", tree.NewValue(text))})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// growths are the two ways a durable test grows the notes document, one
// per journal record type.
var growths = []struct {
	name string
	grow func(t *testing.T, p *Peer, text string)
}{
	{"append", appendNotes},
	{"touch", growNotes},
}

func peerCanonical(p *Peer) string {
	var out string
	p.System(func(s *core.System) { out = s.CanonicalString() })
	return out
}

func TestDurableEmptyDataDir(t *testing.T) {
	dir := t.TempDir()
	p, info := newDurablePeer(t, dir, Durability{})
	if info.Recovered || info.Torn || info.Replayed != 0 || info.SnapshotSeq != 0 {
		t.Fatalf("cold start reported recovery: %+v", info)
	}
	if !p.Durable() {
		t.Fatal("peer not durable")
	}
	growNotes(t, p, "first")
	if err := p.StoreErr(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, JournalFile)); err != nil {
		t.Fatalf("journal not created: %v", err)
	}
}

func TestDurableRestartRecoversJournal(t *testing.T) {
	for _, g := range growths {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			p1, _ := newDurablePeer(t, dir, Durability{})
			g.grow(t, p1, "alpha")
			g.grow(t, p1, "beta")
			want := peerCanonical(p1)
			p1.Close()

			p2, info := newDurablePeer(t, dir, Durability{})
			if !info.Recovered || info.Replayed != 2 || info.Torn {
				t.Fatalf("recovery info: %+v", info)
			}
			if got := peerCanonical(p2); got != want {
				t.Fatalf("recovered state:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestDurableSnapshotOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	// SnapshotEvery=1: every flush compacts, leaving an empty journal.
	p1, _ := newDurablePeer(t, dir, Durability{SnapshotEvery: 1})
	growNotes(t, p1, "alpha")
	want := peerCanonical(p1)
	p1.Close()

	if fi, err := os.Stat(filepath.Join(dir, JournalFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not compacted: %v, size %d", err, fi.Size())
	}
	p2, info := newDurablePeer(t, dir, Durability{SnapshotEvery: 1})
	if !info.Recovered || info.SnapshotSeq == 0 || info.Replayed != 0 {
		t.Fatalf("recovery info: %+v", info)
	}
	if got := peerCanonical(p2); got != want {
		t.Fatalf("recovered state:\n%s\nwant:\n%s", got, want)
	}
}

func TestDurableTornFinalRecordRecovery(t *testing.T) {
	for _, g := range growths {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			p1, _ := newDurablePeer(t, dir, Durability{})
			g.grow(t, p1, "alpha")
			wantPrefix := peerCanonical(p1) // state covered by intact records
			g.grow(t, p1, "beta")
			p1.Close()

			// Tear the final record: chop bytes off the journal tail.
			logPath := filepath.Join(dir, JournalFile)
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(logPath, data[:len(data)-5], 0o644); err != nil {
				t.Fatal(err)
			}

			p2, info := newDurablePeer(t, dir, Durability{})
			if !info.Torn || info.Replayed != 1 {
				t.Fatalf("recovery info: %+v", info)
			}
			if got := peerCanonical(p2); got != wantPrefix {
				t.Fatalf("recovered state:\n%s\nwant intact prefix:\n%s", got, wantPrefix)
			}
			// The truncated journal accepts new appends cleanly.
			g.grow(t, p2, "gamma")
			if err := p2.StoreErr(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDurableSnapshotNewerThanLogTail(t *testing.T) {
	for _, g := range growths {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			p1, _ := newDurablePeer(t, dir, Durability{})
			g.grow(t, p1, "alpha")
			g.grow(t, p1, "beta")
			want := peerCanonical(p1)
			// Force a snapshot covering every record, then undo the
			// compaction by restoring the old journal bytes: the snapshot
			// (seq 2) is now newer than the whole log tail, the state after
			// a crash between WriteSnapshot and Reset.
			logPath := filepath.Join(dir, JournalFile)
			oldLog, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := p1.Snapshot(); err != nil {
				t.Fatal(err)
			}
			p1.Close()
			if err := os.WriteFile(logPath, oldLog, 0o644); err != nil {
				t.Fatal(err)
			}

			p2, info := newDurablePeer(t, dir, Durability{})
			if !info.Recovered || info.SnapshotSeq != 2 || info.Replayed != 0 {
				t.Fatalf("recovery info: %+v (stale log records must be skipped)", info)
			}
			if got := peerCanonical(p2); got != want {
				t.Fatalf("recovered state:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// Double replay: merging the same journal into an already-recovered
// system a second time changes nothing — record merges are least upper
// bounds, so replay is idempotent (the subsumption argument from the
// paper's Section 2.1). A graft record replayed over its own post-state
// carries trees the document already holds, and Graft drops them.
func TestDurableDoubleReplayIdempotent(t *testing.T) {
	for _, g := range growths {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			p1, _ := newDurablePeer(t, dir, Durability{})
			g.grow(t, p1, "alpha")
			g.grow(t, p1, "beta")
			p1.Close()

			sys := core.MustParseSystem(durableSeed)
			logPath := filepath.Join(dir, JournalFile)
			replayOnce := func() {
				_, err := journal.Replay(logPath, func(rec journal.Record) error {
					_, err := replayRecord(sys, rec)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			replayOnce()
			once := sys.CanonicalString()
			replayOnce()
			if twice := sys.CanonicalString(); twice != once {
				t.Fatalf("double replay diverged:\n%s\nvs\n%s", twice, once)
			}
		})
	}
}

func TestDurableCorruptSnapshotRefusesStart(t *testing.T) {
	dir := t.TempDir()
	p1, _ := newDurablePeer(t, dir, Durability{SnapshotEvery: 1})
	growNotes(t, p1, "alpha")
	p1.Close()
	snapPath := filepath.Join(dir, SnapshotFile)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open("durable", core.MustParseSystem(durableSeed), WithDurability(Durability{Dir: dir}))
	if !errors.Is(err, journal.ErrCorruptSnapshot) {
		t.Fatalf("corrupt snapshot: %v", err)
	}
}

// Acceptance (tentpole): a durable peer in a two-peer fleet is killed at
// an arbitrary journal record mid-run, restarted from its data dir,
// catches up via anti-entropy, and the fleet converges to exactly the
// digest of a crash-free run — for every crash point.
func TestChaosKillRestartConvergesToCleanFixpoint(t *testing.T) {
	// The remote peer owns a ratings database that grows while the
	// durable peer is down; extraEntry is that late growth.
	const remoteSeed = `
doc ratings = db{entry{title{"Body and Soul"},stars{"4"}},entry{title{"Naima"},stars{"5"}}}
func GetRating = rating{$s} :- input/input{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
`
	extraEntry := func(p *Peer) {
		p.System(func(s *core.System) {
			doc := s.Document("ratings")
			doc.Root.Children = append(doc.Root.Children,
				syntax.MustParseDocument(`entry{title{"Giant Steps"},stars{"5"}}`))
			s.Touch("ratings")
		})
	}
	// The durable peer: a portal whose document calls the remote service,
	// plus a mirror of the remote ratings database.
	const portalSeedDocs = `
doc portal = directory{cd{title{"Body and Soul"},!GetRating{title{"Body and Soul"}}},cd{title{"Naima"},!GetRating{title{"Naima"}}}}
doc replica = db
`
	buildPortal := func(remoteURL string) *core.System {
		parsed, err := syntax.ParseSystem(portalSeedDocs)
		if err != nil {
			t.Fatal(err)
		}
		sys := core.NewSystem()
		if err := sys.AddService(&RemoteService{Name: "GetRating", URL: remoteURL}); err != nil {
			t.Fatal(err)
		}
		for _, d := range parsed.Docs {
			if err := sys.AddDocument(d); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	runToFixpoint := func(p *Peer, m *Mirror) {
		for i := 0; i < 50; i++ {
			synced, err := m.Sync(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			swept, err := p.Sweep()
			if err != nil {
				t.Fatal(err)
			}
			if !synced && !swept {
				return
			}
		}
		t.Fatal("no fixpoint within budget")
	}

	// Baseline: a never-crashed run against a remote that already has the
	// extra entry (the final remote state both runs end against).
	cleanRemote := mustOpen("ratings", core.MustParseSystem(remoteSeed))
	extraEntry(cleanRemote)
	cleanSrv := httptest.NewServer(cleanRemote.Handler())
	defer cleanSrv.Close()
	clean := mustOpen("portal", buildPortal(cleanSrv.URL))
	cleanMirror := &Mirror{Remote: cleanSrv.URL, RemoteDoc: "ratings", LocalDoc: "replica"}
	runToFixpoint(clean, cleanMirror)
	wantHash := clean.Hash()

	for crashAt := 1; crashAt <= 4; crashAt++ {
		// Fleet under test: remote starts without the extra entry.
		remote := mustOpen("ratings", core.MustParseSystem(remoteSeed))
		srv := httptest.NewServer(remote.Handler())

		dir := t.TempDir()
		crash := &faults.CrashWriter{CrashAt: crashAt, Partial: 11}
		p1, _, err := Open("portal", buildPortal(srv.URL), WithDurability(Durability{
			Dir:        dir,
			WrapWriter: func(w io.Writer) io.Writer { crash.W = w; return crash },
		}))
		if err != nil {
			t.Fatal(err)
		}
		m1 := &Mirror{Remote: srv.URL, RemoteDoc: "ratings", LocalDoc: "replica"}
		p1.AddMirror(m1)

		// Drive the fleet until the injected crash point kills the
		// journal mid-write (or the run finishes first, for large
		// crashAt — then the restart exercises clean-log recovery).
		for i := 0; i < 50 && !crash.Crashed(); i++ {
			if _, err := m1.Sync(context.Background(), p1); err != nil {
				t.Fatalf("crashAt=%d: %v", crashAt, err)
			}
			if crash.Crashed() {
				break
			}
			if _, err := p1.Sweep(); err != nil {
				t.Fatalf("crashAt=%d: %v", crashAt, err)
			}
		}
		// Kill: the process is gone; only the data dir survives. (Close
		// is not called — a real kill -9 would not flush anything.)
		if crash.Crashed() && p1.StoreErr() == nil {
			t.Fatalf("crashAt=%d: crash not surfaced via StoreErr", crashAt)
		}

		// While the peer is down the remote database grows.
		extraEntry(remote)

		// Restart from disk: recover, re-register the mirror, run
		// anti-entropy to re-pull the moved replica, sweep to fixpoint.
		p2, info, err := Open("portal", buildPortal(srv.URL), WithDurability(Durability{Dir: dir}))
		if err != nil {
			t.Fatalf("crashAt=%d: restart: %v", crashAt, err)
		}
		if crash.Crashed() && crash.Partial > 0 && !info.Torn {
			t.Fatalf("crashAt=%d: torn tail not detected: %+v", crashAt, info)
		}
		m2 := &Mirror{Remote: srv.URL, RemoteDoc: "ratings", LocalDoc: "replica"}
		p2.AddMirror(m2)
		if _, err := p2.AntiEntropy(context.Background()); err != nil {
			t.Fatalf("crashAt=%d: anti-entropy: %v", crashAt, err)
		}
		runToFixpoint(p2, m2)

		if got := p2.Hash(); got != wantHash {
			t.Fatalf("crashAt=%d: fleet diverged after crash+restart:\n got %s\nwant %s",
				crashAt, got, wantHash)
		}
		assertDigestsFresh(t, p2)
		assertDigestsFresh(t, remote)
		p2.Close()
		srv.Close()
	}
}

// AntiEntropy skips replicas whose remote digest matches the last pull
// and re-pulls the ones that moved.
func TestAntiEntropySkipsCurrentReplicas(t *testing.T) {
	remote := newRatingsPeer(t)
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()

	sys := core.NewSystem()
	if err := sys.AddDocument(NewReplicaDoc("replica", "db")); err != nil {
		t.Fatal(err)
	}
	p := mustOpen("local", sys)
	m := &Mirror{Remote: srv.URL, RemoteDoc: "ratings", LocalDoc: "replica"}
	p.AddMirror(m)

	// First pass pulls (no digest on record yet).
	n, err := p.AntiEntropy(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("first pass: n=%d err=%v", n, err)
	}
	// Second pass: nothing moved, nothing pulled.
	syncsBefore := m.Syncs
	n, err = p.AntiEntropy(context.Background())
	if err != nil || n != 0 || m.Syncs != syncsBefore {
		t.Fatalf("steady pass: n=%d syncs=%d err=%v", n, m.Syncs, err)
	}
	// Remote moves; the pass pulls again.
	remote.System(func(s *core.System) {
		doc := s.Document("ratings")
		doc.Root.Children = append(doc.Root.Children,
			syntax.MustParseDocument(`entry{title{"Blue in Green"},stars{"5"}}`))
		s.Touch("ratings")
	})
	n, err = p.AntiEntropy(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("after move: n=%d err=%v", n, err)
	}
}

// A journaling failure must not take down in-memory serving: the peer
// degrades to volatile and keeps converging.
func TestJournalFailureDegradesToVolatile(t *testing.T) {
	crash := &faults.CrashWriter{CrashAt: 1, Partial: 0}
	p, _, err := Open("fragile", core.MustParseSystem(durableSeed), WithDurability(Durability{
		Dir:        t.TempDir(),
		WrapWriter: func(w io.Writer) io.Writer { crash.W = w; return crash },
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	growNotes(t, p, "doomed")
	if p.StoreErr() == nil {
		t.Fatal("journal failure not recorded")
	}
	if !errors.Is(p.StoreErr(), faults.ErrCrash) {
		t.Fatalf("unexpected store error: %v", p.StoreErr())
	}
	// Serving continues from memory.
	growNotes(t, p, "still alive")
	var size int
	p.System(func(s *core.System) { size = s.Size() })
	if size == 0 {
		t.Fatal("in-memory state lost")
	}
}

// subscribe serves a Subscriber on p whose subscription id attaches
// under the node reached from doc's root by the given labels, and
// returns a function pushing one tree to it over HTTP: a nil error is the
// acknowledgement.
func subscribe(t *testing.T, p *Peer, id, doc string, labels ...string) func(*tree.Node) error {
	t.Helper()
	sub := NewSubscriber(p)
	p.System(func(s *core.System) {
		n := s.Document(doc).Root
		for _, l := range labels {
			var next *tree.Node
			for _, c := range n.Children {
				if c.Kind == tree.Label && c.Name == l {
					next = c
				}
			}
			if next == nil {
				t.Fatalf("no %q under %s", l, n.Name)
			}
			n = next
		}
		sub.Register(id, doc, n)
	})
	srv := httptest.NewServer(sub.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, nil)
	return func(n *tree.Node) error {
		return c.Push(context.Background(), id, tree.Forest{n})
	}
}

// feedSeed puts a push target two levels below the root, so graft
// records carry a path of two steps.
const feedSeed = `doc feed = feed{topic{name{"go"},posts}}`

func post(i int) *tree.Node {
	return tree.NewLabel("post", tree.NewValue(fmt.Sprintf("p%d", i)))
}

// A subscriber registered on a nested node: every push is a graft record
// whose path resolves on replay, across a snapshot and the records after
// it. Two grafts in one Update, the second under a tree the first
// appended, resolve too: each record holds the state its graft left, not
// the state at flush time.
func TestDurableDeepPathGraftRecovery(t *testing.T) {
	dir := t.TempDir()
	d := Durability{Dir: dir, SnapshotEvery: 4}
	reg := obs.NewRegistry()
	p1, _, err := Open("feed", core.MustParseSystem(feedSeed), WithDurability(d), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	push := subscribe(t, p1, "posts", "feed", "topic", "posts")
	for i := 0; i < 5; i++ {
		if err := push(post(i)); err != nil {
			t.Fatal(err)
		}
	}
	p1.System(func(s *core.System) {
		root := s.Document("feed").Root
		if _, err = s.Append("feed", root, tree.Forest{syntax.MustParseDocument(`topic{name{"rust"},posts}`)}); err != nil {
			return
		}
		for _, c := range root.Children {
			if c.Children[0].Children[0].Name == "rust" {
				_, err = s.Append("feed", c.Children[1], tree.Forest{post(9)})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("journal.graft_records").Value(); got != 7 {
		t.Fatalf("journal.graft_records = %d, want 7", got)
	}
	if got := reg.Counter("journal.state_records").Value(); got != 0 {
		t.Fatalf("journal.state_records = %d, want 0", got)
	}
	want := p1.Hash()
	p1.Close()

	reg2 := obs.NewRegistry()
	p2, info, err := Open("feed", core.MustParseSystem(feedSeed), WithDurability(d), WithObservability(reg2))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if info.SnapshotSeq != 4 || info.Replayed != 3 {
		t.Fatalf("recovery info: %+v", info)
	}
	if got := reg2.Counter("journal.replay_unresolved").Value(); got != 0 {
		t.Fatalf("journal.replay_unresolved = %d", got)
	}
	if got := p2.Hash(); got != want {
		t.Fatalf("recovered digest %s, live %s", got, want)
	}
	assertDigestsFresh(t, p2)
}

// A restart with a changed seed definition: the recorded path digests no
// longer resolve, so each graft falls back to a marking-only chain under
// the root. Every fallback is counted, every acknowledged tree is
// present, and nothing beyond the new seed and the live state appears.
func TestDurableChangedSeedFallsBackToChain(t *testing.T) {
	dir := t.TempDir()
	d := Durability{Dir: dir, SnapshotEvery: -1}
	p1, _, err := Open("feed", core.MustParseSystem(feedSeed), WithDurability(d))
	if err != nil {
		t.Fatal(err)
	}
	push := subscribe(t, p1, "posts", "feed", "topic", "posts")
	const n = 3
	for i := 0; i < n; i++ {
		if err := push(post(i)); err != nil {
			t.Fatal(err)
		}
	}
	var live *tree.Node
	p1.System(func(s *core.System) { live = s.Document("feed").Root.Copy() })
	p1.Close()

	const changedSeed = `doc feed = feed{topic{name{"go"},lang{"en"},posts}}`
	reg := obs.NewRegistry()
	p2, info, err := Open("feed", core.MustParseSystem(changedSeed), WithDurability(d), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if info.Replayed != n {
		t.Fatalf("recovery info: %+v, want %d replayed", info, n)
	}
	if got := reg.Counter("journal.replay_unresolved").Value(); got != n {
		t.Fatalf("journal.replay_unresolved = %d, want %d", got, n)
	}
	var got *tree.Node
	p2.System(func(s *core.System) { got = s.Document("feed").Root.Copy() })
	bound := subsume.Union(live, syntax.MustParseDocument(`feed{topic{name{"go"},lang{"en"},posts}}`))
	if !subsume.Subsumed(got, bound) {
		t.Fatalf("recovered %s is not below seed ∪ live %s", got, bound)
	}
	for i := 0; i < n; i++ {
		acked := tree.NewLabel("feed", tree.NewLabel("topic", tree.NewLabel("posts", post(i))))
		if !subsume.Subsumed(acked, got) {
			t.Fatalf("acknowledged %s lost: recovered %s", post(i), got)
		}
	}
	if !subsume.IsReduced(got) {
		t.Fatalf("recovered document not reduced: %s", got)
	}
}

// A journal written before graft records existed — hand-written
// document-state frames (type 1, an ax:doc payload) — still opens.
func TestDurableOldFormatJournalOpens(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(filepath.Join(dir, JournalFile), journal.Info{}, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, state := range []string{
		`<ax:doc name="notes"><log><entry><ax:value>boot</ax:value></entry><entry><ax:value>alpha</ax:value></entry></log></ax:doc>`,
		`<ax:doc name="notes"><log><entry><ax:value>boot</ax:value></entry><entry><ax:value>alpha</ax:value></entry><entry><ax:value>beta</ax:value></entry></log></ax:doc>`,
	} {
		if _, err := j.Append(1, []byte(state)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	p, info := newDurablePeer(t, dir, Durability{})
	if info.Replayed != 2 {
		t.Fatalf("recovery info: %+v", info)
	}
	want := core.MustParseSystem(`doc notes = log{entry{"boot"},entry{"alpha"},entry{"beta"}}`).CanonicalString()
	if got := peerCanonical(p); got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
}

// A record type this binary does not know fails Open with a typed error
// instead of being skipped: skipping it would drop acknowledged data.
func TestDurableUnknownRecordTypeRefusesStart(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(filepath.Join(dir, JournalFile), journal.Info{}, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(9, []byte("from a newer binary")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open("durable", core.MustParseSystem(durableSeed), WithDurability(Durability{Dir: dir}))
	if !errors.Is(err, ErrUnknownRecord) {
		t.Fatalf("unknown record type: %v", err)
	}
}

// Crash at every write: a push-only durable peer whose journal dies at
// write k, for every k across three snapshot/Reset cycles. No re-sweep
// and no anti-entropy run after the restart, so nothing masks a loss:
// every push acknowledged before the crash must be in the recovered
// state, whose digest must equal the live digest after the last of them.
func TestDurablePushCrashAtEveryWrite(t *testing.T) {
	const seed = `doc box = box{tray}`
	const pushes = 12 // one record each; SnapshotEvery 4 compacts three times
	for crashAt := 1; crashAt <= pushes; crashAt++ {
		dir := t.TempDir()
		crash := &faults.CrashWriter{CrashAt: crashAt, Partial: 7}
		p1, _, err := Open("box", core.MustParseSystem(seed), WithDurability(Durability{
			Dir: dir, SnapshotEvery: 4,
			WrapWriter: func(w io.Writer) io.Writer { crash.W = w; return crash },
		}))
		if err != nil {
			t.Fatal(err)
		}
		top := subscribe(t, p1, "top", "box")
		inTray := subscribe(t, p1, "tray", "box", "tray")
		var acked []*tree.Node
		ackedHash := p1.Hash()
		for i := 0; i < pushes; i++ {
			entry := tree.NewLabel("entry", tree.NewValue(fmt.Sprint(i)))
			want := tree.NewLabel("box", entry)
			push := top
			if i%2 == 1 {
				push, want = inTray, tree.NewLabel("box", tree.NewLabel("tray", entry))
			}
			if err := push(entry); err != nil {
				t.Fatalf("crashAt=%d push %d: %v", crashAt, i, err)
			}
			if crash.Crashed() {
				break // acknowledged from memory; its record tore
			}
			acked = append(acked, want)
			ackedHash = p1.Hash()
		}
		if !crash.Crashed() || p1.StoreErr() == nil {
			t.Fatalf("crashAt=%d: crash not reached or not surfaced", crashAt)
		}

		reg := obs.NewRegistry()
		p2, info, err := Open("box", core.MustParseSystem(seed),
			WithDurability(Durability{Dir: dir, SnapshotEvery: 4}), WithObservability(reg))
		if err != nil {
			t.Fatalf("crashAt=%d: restart: %v", crashAt, err)
		}
		if !info.Torn || reg.Counter("journal.replay_unresolved").Value() != 0 {
			t.Fatalf("crashAt=%d: recovery info %+v, %d unresolved", crashAt, info,
				reg.Counter("journal.replay_unresolved").Value())
		}
		if got := p2.Hash(); got != ackedHash {
			t.Fatalf("crashAt=%d: recovered digest %s, live at the acknowledged prefix %s", crashAt, got, ackedHash)
		}
		var root *tree.Node
		p2.System(func(s *core.System) { root = s.Document("box").Root })
		for _, a := range acked {
			if !subsume.Subsumed(a, root) {
				t.Fatalf("crashAt=%d: acknowledged %s lost", crashAt, a)
			}
		}
		p2.Close()
		p1.Close()
	}
}
