package peer

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"axml/internal/core"
	"axml/internal/journal"
	"axml/internal/obs"
	"axml/internal/pattern"
	"axml/internal/tree"
)

// snapSeed holds three inboxes that grow, a document that never moves
// and a replica seed whose guessed root label the first restore replaces.
const snapSeed = `
doc a = inbox
doc b = inbox
doc c = inbox
doc still = box{x{"1"}}
doc replica = guess
`

// liveSnapshot is the oracle encoding of p's live documents.
func liveSnapshot(t *testing.T, p *Peer) []byte {
	t.Helper()
	var payload []byte
	var err error
	p.system.View(func() {
		var docs []*tree.Document
		for _, name := range p.system.DocNames() {
			docs = append(docs, p.system.Document(name))
		}
		payload, err = MarshalSnapshot(docs)
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// checkSnapshot compares the snapshot file in dir with the oracle
// encoding of p's documents, and recovers a peer from that file alone:
// it must hold p's digest.
func checkSnapshot(t *testing.T, p *Peer, dir, what string) {
	t.Helper()
	_, payload, err := journal.ReadSnapshot(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := liveSnapshot(t, p); !bytes.Equal(payload, want) {
		t.Fatalf("%s: snapshot payload\n%s\ndiffers from the oracle's\n%s", what, payload, want)
	}
	rdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(rdir, SnapshotFile), mustRead(t, filepath.Join(dir, SnapshotFile)), 0o644); err != nil {
		t.Fatal(err)
	}
	q, _, err := Open("snap", core.MustParseSystem(snapSeed), WithDurability(Durability{Dir: rdir}))
	if err != nil {
		t.Fatalf("%s: recover: %v", what, err)
	}
	defer q.Close()
	if got, want := q.Hash(), p.Hash(); got != want {
		t.Fatalf("%s: recovered digest %s, live %s", what, got, want)
	}
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A durable peer's snapshots copy the bytes of the documents that did
// not move and encode the rest; every payload must still be the one the
// full encoder writes for the live documents, and recover to the live
// digest. The seeded sequence pushes into a few inboxes, reorders one by
// hand (Touch: the digest does not move, the bytes do), adopts a replica
// seed's root and leaves one document alone, across many snapshot cycles.
func TestSnapshotReusesUnchangedDocuments(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	p, _, err := Open("snap", core.MustParseSystem(snapSeed),
		WithDurability(Durability{Dir: dir, SnapshotEvery: 4}), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := rand.New(rand.NewSource(43))
	checked := int64(0)
	for step := 0; step < 60; step++ {
		var err error
		switch op := rng.Intn(10); {
		case step == 9:
			p.System(func(s *core.System) {
				_, err = s.Restore("replica", tree.NewLabel("db", tree.NewLabel("row", tree.NewValue("r0"))))
			})
		case op == 0:
			doc := []string{"a", "b", "c"}[rng.Intn(3)]
			p.System(func(s *core.System) {
				slices.Reverse(s.Document(doc).Root.Children)
				s.Touch(doc)
			})
			err = p.Snapshot()
		default:
			docs := []string{"a", "b", "c", "replica"}
			if step < 9 {
				docs = docs[:3] // the replica seed holds nothing before its adoption
			}
			doc := docs[rng.Intn(len(docs))]
			p.System(func(s *core.System) {
				_, err = s.Append(doc, s.Document(doc).Root, tree.Forest{tree.NewLabel("entry",
					tree.NewLabel("id", tree.NewValue(fmt.Sprint(step))))})
			})
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if n := reg.Counter("journal.snapshots").Value(); n > checked {
			checked = n
			checkSnapshot(t, p, dir, fmt.Sprintf("step %d", step))
		}
	}
	encoded := reg.Counter("journal.snapshot_docs_encoded").Value()
	reused := reg.Counter("journal.snapshot_docs_reused").Value()
	if checked < 3 || encoded+reused != 5*checked || reused < checked-1 {
		t.Fatalf("%d snapshots: %d documents encoded, %d reused", checked, encoded, reused)
	}
	if st := p.Status(); st.SnapshotDocsEncoded != encoded || st.SnapshotDocsReused != reused {
		t.Fatalf("status reports %d encoded, %d reused; registry %d, %d",
			st.SnapshotDocsEncoded, st.SnapshotDocsReused, encoded, reused)
	}
}

// A snapshot whose encoding fails writes nothing and leaves the writer's
// record of the last snapshot as it was: the next snapshot reuses only
// bytes that were written, not the failed attempt's partial encoding.
func TestSnapshotAfterFailedEncode(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open("snap", core.MustParseSystem(snapSeed),
		WithDurability(Durability{Dir: dir, SnapshotEvery: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	grow := func(doc string, n *tree.Node) {
		p.System(func(s *core.System) { _, err = s.Append(doc, s.Document(doc).Root, tree.Forest{n}) })
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, doc := range []string{"a", "b", "c"} {
		grow(doc, tree.NewLabel("entry", tree.NewValue(doc)))
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, p, dir, "first snapshot")

	// c moves, then b takes a value no wire can carry: the encoding fails
	// at b, before c is encoded.
	grow("c", tree.NewLabel("entry", tree.NewValue("c2")))
	grow("b", tree.NewValue("bad\x00"))
	if err := p.Snapshot(); err == nil {
		t.Fatal("a snapshot of an unencodable value succeeded")
	}
	p.System(func(s *core.System) {
		root := s.Document("b").Root
		root.Children = slices.DeleteFunc(root.Children, func(n *tree.Node) bool { return n.Kind == tree.Value })
		s.Touch("b")
	})
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, p, dir, "after the repair")
}

// Recovery records journal.recover_ns and, traced, one "recover" span
// whose decode, restore and replay parts sum to its duration and whose
// workers attribute is the fan-out's width.
func TestRecoverSpanSplitsRecovery(t *testing.T) {
	dir := t.TempDir()
	want := buildRecoverImage(t, dir, 32, 20, 8)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	p, info, err := Open("recovered", recoverSeed(32), WithTracer(obs.NewTracer(&buf)),
		WithObservability(reg), WithDurability(Durability{Dir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Hash() != want || info.Replayed != 8 {
		t.Fatalf("recovered %+v, digest %s, want %s", info, p.Hash(), want)
	}
	if n := reg.Histogram("journal.recover_ns").Snapshot().Count; n != 1 {
		t.Fatalf("journal.recover_ns holds %d samples, want 1", n)
	}
	spans, _ := parseSpans(t, &buf)
	var rec []obs.Span
	for _, s := range spans {
		if s.Kind == "recover" {
			rec = append(rec, s)
		}
	}
	if len(rec) != 1 {
		t.Fatalf("%d recover spans, want 1", len(rec))
	}
	s := rec[0]
	if s.Name != "recovered" || s.Attrs["docs"] != 32 || s.Attrs["replayed"] != 8 || s.Attrs["workers"] != int64(min(runtime.GOMAXPROCS(0), 32)) {
		t.Fatalf("recover span %+v", s)
	}
	parts := s.Attrs["decode_us"] + s.Attrs["restore_us"] + s.Attrs["replay_us"]
	if s.DurUs <= 0 || math.Abs(float64(parts-s.DurUs)) > 0.05*float64(s.DurUs) {
		t.Fatalf("recover span of %d µs, parts sum to %d: %v", s.DurUs, parts, s.Attrs)
	}
}

// recoverSeed is the system a durable-ingest peer (re)opens with: docs
// empty inboxes.
func recoverSeed(docs int) *core.System {
	s := core.NewSystem()
	for i := 0; i < docs; i++ {
		if err := s.AddDocument(tree.NewDocument(fmt.Sprintf("inbox%03d", i), tree.NewLabel("inbox"))); err != nil {
			panic(err)
		}
	}
	return s
}

// buildRecoverImage leaves in dir what a durable-ingest peer leaves: docs
// inboxes of entries entry{id,body} pushed round-robin, a snapshot, then
// a journal tail of tail more pushes. It returns the peer's digest.
func buildRecoverImage(t testing.TB, dir string, docs, entries, tail int) string {
	t.Helper()
	p, _, err := Open("durable", recoverSeed(docs),
		WithDurability(Durability{Dir: dir, SnapshotEvery: -1, SyncEvery: 1 << 20}))
	if err != nil {
		t.Fatal(err)
	}
	push := func(i int) {
		doc := fmt.Sprintf("inbox%03d", i%docs)
		p.System(func(s *core.System) {
			_, err = s.Append(doc, s.Document(doc).Root, tree.Forest{tree.NewLabel("entry",
				tree.NewLabel("id", tree.NewValue(fmt.Sprintf("e%06x", i))),
				tree.NewLabel("body", tree.NewValue(fmt.Sprintf("payload-%06x", i))))})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < docs*entries; i++ {
		push(i)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tail; i++ {
		push(docs*entries + i)
	}
	want := p.Hash()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// BenchmarkRecover times peer.Open on a copy of a durable-ingest crash
// image: 128 inboxes of 50 entry{id,body} pushes in a snapshot, and a
// 32-record journal tail. open is the open alone; open+match adds one
// anchored match on every document, which builds its index — the cost
// the open no longer pays moves there. Profile recovery with
// go test ./internal/peer -run '^$' -bench Recover/open$ -cpuprofile cpu.out.
func BenchmarkRecover(b *testing.B) {
	image := b.TempDir()
	want := buildRecoverImage(b, image, 128, 50, 32)
	files := map[string][]byte{}
	for _, name := range []string{SnapshotFile, JournalFile} {
		files[name] = mustRead(b, filepath.Join(image, name))
	}
	var v pattern.Vars
	c := v.Compile(pattern.Label("inbox", pattern.Label("entry", pattern.Label("id", pattern.Value("e000001")))))
	for _, match := range []bool{false, true} {
		name := "open"
		if match {
			name = "open+match"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), "crash")
				if err := os.MkdirAll(dir, 0o755); err != nil {
					b.Fatal(err)
				}
				for name, data := range files {
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						b.Fatal(err)
					}
				}
				sys := recoverSeed(128)
				b.StartTimer()
				p, _, err := Open("recovered", sys, WithDurability(Durability{Dir: dir}))
				if err == nil && match {
					p.System(func(s *core.System) {
						for _, doc := range s.DocNames() {
							s.Index(doc).MatchRows(c, s.Document(doc).Root, pattern.NewSlab(&v).Row(), 0)
						}
					})
				}
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if got := p.Hash(); got != want {
					b.Fatalf("recovered digest %s, want %s", got, want)
				}
				p.Close()
				b.StartTimer()
			}
		})
	}
}
