package peer

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
	"unicode/utf8"

	"axml/internal/core"
	"axml/internal/journal"
	"axml/internal/obs"
	"axml/internal/tree"
)

// Durability: a durable peer journals what grew, not what exists. Every
// growth of a document — a sweep's merge, a mirror sync, a push delivery
// — leaves core's appendAt as (document, path, fresh trees); the peer's
// mutation hook encodes it on the spot as one graft record and the next
// flush appends the records, in order, to a write-ahead log
// (internal/journal), which is periodically compacted into an
// atomically-written snapshot of the live documents. A by-hand edit
// (Touch) has no such growth and journals the whole document state.
//
// The paper's monotonicity (Prop 3.1: documents only grow) makes replay
// an idempotent least-upper-bound merge. Recovery loads the snapshot,
// then re-applies each record in order: a graft record resolves its path
// from the document root one child per recorded digest — the replayed
// state is exactly the record's pre-state — and appends its trees there;
// a state record merges by Restore. A path that does not resolve (the
// seed definition changed, or a record was duplicated) falls back to a
// marking-only chain under the deepest node that did: the chain maps
// into the state the record logged, so the result stays below the live
// document and keeps every acknowledged tree, and a duplicate's chain is
// subsumed and dropped. The suffix lost to a torn tail or an unsynced
// batch is re-derived by re-sweeping: a peer killed at ANY point restarts
// into a state from which the fleet still converges to the same canonical
// fixpoint. A binary that predates graft records cannot replay them and
// refuses to open such a journal (ErrUnknownRecord).

// Names of the durability files inside the data directory.
const (
	JournalFile  = "journal.wal"
	SnapshotFile = "snapshot.axs"
)

// Journal record types. recDocState carries an ax:doc document state
// (MarshalDocRecord); recGraft carries one growth (marshalGraftRecord).
const (
	recDocState byte = 1
	recGraft    byte = 2
)

// ErrUnknownRecord is returned by Open when the journal holds a record
// type this binary does not know — a journal written by a newer one.
// Skipping the record would silently drop acknowledged data.
var ErrUnknownRecord = errors.New("peer: unknown journal record type")

// Durability configures a durable peer.
type Durability struct {
	// Dir is the data directory (created if missing). Empty disables
	// durability — Open then builds a plain in-memory peer.
	Dir string
	// SnapshotEvery compacts the journal into a snapshot after that many
	// appended records; 0 means DefaultSnapshotEvery, negative disables
	// automatic snapshots.
	SnapshotEvery int
	// SyncEvery fsyncs the journal every n records (1 = every record);
	// 0 means 1. See journal.Options.SyncEvery.
	SyncEvery int
	// WrapWriter is the fault-injection hook threaded to the journal
	// (internal/faults.CrashWriter delivers torn writes through it).
	WrapWriter func(io.Writer) io.Writer
}

// DefaultSnapshotEvery compacts the journal after this many records when
// Durability.SnapshotEvery is zero.
const DefaultSnapshotEvery = 64

// RecoveryInfo reports what Open (with WithDurability) found on disk.
type RecoveryInfo struct {
	// SnapshotSeq is the journal sequence the loaded snapshot covered
	// (0: no snapshot).
	SnapshotSeq uint64
	// Replayed counts the journal records merged into the system
	// (records at or below SnapshotSeq are skipped — the snapshot
	// already reflects them).
	Replayed int
	// Torn reports that the journal had a torn or corrupt tail, now
	// truncated — the expected residue of a crash mid-append.
	Torn bool
	// Recovered reports that any state (snapshot or records) was loaded.
	Recovered bool
}

// store is a peer's durability state, guarded by its system's write side:
// the mutation hook fills pending under it, the flush drains it there.
type store struct {
	dir           string
	j             *journal.Journal
	snapshotEvery int
	sinceSnapshot int
	pending       []pendingRecord // encoded growths, in order, not yet appended
	err           error           // first journaling failure; journaling stops after
	snapBytes     int             // the last snapshot payload's size
}

// openStore recovers the snapshot and journal found in d.Dir into the
// freshly-built system (the snapshot documents, decoded and reduced in
// parallel, restored over their seeds in file order, then each record
// replayed in order) and reopens the journal for appending. It runs
// before the peer exists: recovery's merges must not observe a mutation
// hook that would journal them back. The registry and tracer (either may
// be nil) are handed to the journal for its journal.* metrics and fsync
// spans; replay counts journal.replay_unresolved there, recovery's time
// goes to journal.recover_ns and a "recover" span records the wall time
// of each stage (decode, restore, replay) and the fan-out's workers.
func openStore(name string, s *core.System, d Durability, m *obs.Registry, tr *obs.Tracer) (*store, RecoveryInfo, error) {
	var info RecoveryInfo
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, info, err
	}
	start, ts := time.Now(), tr.Now()

	// 1. Snapshot: the compacted history up to SnapshotSeq.
	var docs []*tree.Document
	snapPath := filepath.Join(d.Dir, SnapshotFile)
	snapSeq, payload, err := journal.ReadSnapshot(snapPath)
	switch {
	case err == nil:
		if docs, err = UnmarshalSnapshot(payload); err != nil {
			return nil, info, fmt.Errorf("peer %s: decode snapshot: %w", name, err)
		}
		info.SnapshotSeq = snapSeq
		info.Recovered = true
	case os.IsNotExist(err):
		// Cold start or journal-only state.
	default:
		return nil, info, fmt.Errorf("peer %s: read snapshot: %w", name, err)
	}
	decoded := time.Now()
	for _, d := range docs {
		if err := addUnknown(s, d.Name, d.Root); err != nil {
			return nil, info, fmt.Errorf("peer %s: restore snapshot: %w", name, err)
		}
	}
	if err := s.RestoreAll(docs); err != nil {
		return nil, info, fmt.Errorf("peer %s: restore snapshot: %w", name, err)
	}
	restored := time.Now()

	// 2. Journal: every growth after the snapshot, in order. Records the
	// snapshot already covers are skipped: a graft record resolves its
	// path against its exact pre-state, which only an in-order replay
	// from the snapshot reproduces. A snapshot newer than the log tail
	// therefore recovers from the snapshot alone.
	logPath := filepath.Join(d.Dir, JournalFile)
	replayInfo, err := journal.Replay(logPath, func(rec journal.Record) error {
		if rec.Seq <= snapSeq {
			return nil
		}
		resolved, err := replayRecord(s, rec)
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		if !resolved {
			m.Counter("journal.replay_unresolved").Inc()
		}
		info.Replayed++
		info.Recovered = true
		return nil
	})
	if err != nil {
		return nil, info, fmt.Errorf("peer %s: replay journal: %w", name, err)
	}
	info.Torn = replayInfo.Torn

	// 3. Reopen the log for appending (truncating any torn tail).
	syncEvery := d.SyncEvery
	if syncEvery == 0 {
		syncEvery = 1
	}
	j, err := journal.Open(logPath, replayInfo, journal.Options{
		SyncEvery:  syncEvery,
		WrapWriter: d.WrapWriter,
		Metrics:    m,
		Tracer:     tr,
	})
	if err != nil {
		return nil, info, fmt.Errorf("peer %s: open journal: %w", name, err)
	}
	end := time.Now()
	m.Histogram("journal.recover_ns").Observe(int64(end.Sub(start)))
	if tr.Enabled() {
		tr.Emit(obs.Span{Kind: "recover", Name: name, TSUs: ts, DurUs: end.Sub(start).Microseconds(),
			Attrs: map[string]int64{"docs": int64(len(docs)), "replayed": int64(info.Replayed),
				"workers":   int64(min(core.DefaultParallelism(), len(docs))),
				"decode_us": decoded.Sub(start).Microseconds(), "restore_us": restored.Sub(decoded).Microseconds(),
				"replay_us": end.Sub(restored).Microseconds()}})
	}

	snapshotEvery := d.SnapshotEvery
	if snapshotEvery == 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	return &store{dir: d.Dir, j: j, snapshotEvery: snapshotEvery}, info, nil
}

// graftDigestLen is how many bytes of a path node's digest a graft
// record keeps: digestHex's 8, the peer's one wire name of a state.
const graftDigestLen = 8

// GraftRecord is one growth of a document, decoded: the path below the
// root by marking and pre-graft digest (graftDigestLen bytes of each
// step's Digest) and the fresh trees.
type GraftRecord struct {
	Doc   string
	Path  []core.GraftStep
	Fresh tree.Forest
}

// marshalGraftRecord encodes one growth as a recGraft payload:
//
//	uvarint len(doc) doc  uvarint steps
//	steps × (kind(1) uvarint len(name) name digest(8))
//	ax:forest of the fresh trees (MarshalForest's wire form)
func marshalGraftRecord(doc string, path []core.GraftStep, fresh tree.Forest) ([]byte, error) {
	b := appendString(nil, doc)
	b = binary.AppendUvarint(b, uint64(len(path)))
	for _, st := range path {
		b = appendString(append(b, byte(st.Kind)), st.Name)
		b = append(b, st.Digest[:graftDigestLen]...)
	}
	e := encoder{b: b}
	e.forest(fresh)
	return e.bytes()
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// unmarshalGraftRecord decodes a recGraft payload; a step's Digest holds
// the recorded graftDigestLen bytes. Every step must name a node that can
// have children (a label with a wire-safe name, or a call), and the
// forest must hold at least one tree: the hook never journals an empty
// growth.
func unmarshalGraftRecord(data []byte) (doc string, path []core.GraftStep, fresh tree.Forest, err error) {
	bad := func(what string) error { return fmt.Errorf("peer: bad graft record: %s", what) }
	getString := func() (string, bool) {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			return "", false
		}
		s := string(data[k : k+int(n)])
		data = data[k+int(n):]
		return s, true
	}
	doc, ok := getString()
	if !ok || doc == "" {
		return "", nil, nil, bad("document name")
	}
	steps, k := binary.Uvarint(data)
	// A step takes at least 1+1+graftDigestLen bytes.
	if k <= 0 || steps > uint64(len(data)-k)/(2+graftDigestLen) {
		return "", nil, nil, bad("step count")
	}
	data = data[k:]
	path = make([]core.GraftStep, steps)
	for i := range path {
		st := &path[i]
		if len(data) == 0 {
			return "", nil, nil, bad("truncated step")
		}
		st.Kind = tree.Kind(data[0])
		data = data[1:]
		if st.Name, ok = getString(); !ok || len(data) < graftDigestLen {
			return "", nil, nil, bad("truncated step")
		}
		switch st.Kind {
		case tree.Label:
			ok = validLabel(st.Name)
		case tree.Func:
			ok = st.Name != "" && utf8.ValidString(st.Name)
		default:
			ok = false
		}
		if !ok {
			return "", nil, nil, bad(fmt.Sprintf("step %d: %s %q", i, st.Kind, st.Name))
		}
		copy(st.Digest[:graftDigestLen], data)
		data = data[graftDigestLen:]
	}
	if fresh, err = UnmarshalForest(data); err != nil {
		return "", nil, nil, fmt.Errorf("peer: bad graft record: %w", err)
	}
	if len(fresh) == 0 {
		return "", nil, nil, bad("empty forest")
	}
	return doc, path, fresh, nil
}

// replayRecord merges one journal record into s: a graft record through
// replayGraft, a document state by Restore. A record type this binary
// does not know fails with ErrUnknownRecord. resolved is false only for
// a graft record that fell back to its chain.
func replayRecord(s *core.System, rec journal.Record) (resolved bool, err error) {
	switch rec.Type {
	case recGraft:
		return replayGraft(s, rec.Payload)
	case recDocState:
		name, root, err := UnmarshalDocRecord(rec.Payload)
		if err == nil {
			err = addUnknown(s, name, root)
		}
		if err != nil {
			return false, err
		}
		_, err = s.Restore(name, root)
		return err == nil, err
	default:
		return false, fmt.Errorf("%w %d", ErrUnknownRecord, rec.Type)
	}
}

// addUnknown adds an empty document of root's marking to s when s lacks
// the name: a document added to a live peer (AddDocument) is in its
// snapshot and state records but not in the seed it recovers into. The
// Restore that follows adopts the recovered tree.
func addUnknown(s *core.System, name string, root *tree.Node) error {
	if s.Document(name) != nil {
		return nil
	}
	if err := CheckDocName(name); err != nil {
		return err
	}
	return s.AddDocument(tree.NewDocument(name, &tree.Node{Kind: root.Kind, Name: root.Name}))
}

// replayGraft re-applies one graft record to s. It resolves the recorded
// path from the document root, one child per step (same marking, same
// digest; reduced siblings never share one), and appends the forest at
// the node reached. Where a step does not resolve, the rest of the path
// becomes a marking-only chain holding the forest, appended under the
// deepest node that did resolve. It reports whether the path resolved.
func replayGraft(s *core.System, payload []byte) (resolved bool, err error) {
	docName, path, forest, err := unmarshalGraftRecord(payload)
	if err != nil {
		return false, err
	}
	doc := s.Document(docName)
	if doc == nil {
		return false, fmt.Errorf("peer: graft record for unknown document %q", docName)
	}
	at, depth := resolveGraft(doc.Root, path)
	for i := len(path) - 1; i >= depth; i-- {
		forest = tree.Forest{&tree.Node{Kind: path[i].Kind, Name: path[i].Name, Children: forest}}
	}
	if _, err := s.Append(docName, at, forest); err != nil {
		return false, err
	}
	return depth == len(path), nil
}

// resolveGraft walks a record's path down from root, one child per step,
// and returns the deepest node reached and how many steps resolved.
func resolveGraft(root *tree.Node, path []core.GraftStep) (at *tree.Node, depth int) {
	for at = root; depth < len(path); depth++ {
		next := stepChild(at, path[depth])
		if next == nil {
			break
		}
		at = next
	}
	return at, depth
}

// stepChild finds n's child the decoded step names.
func stepChild(n *tree.Node, st core.GraftStep) *tree.Node {
	for _, c := range n.Children {
		if c.Kind != st.Kind || c.Name != st.Name {
			continue
		}
		if h := c.Digest(); bytes.Equal(h[:graftDigestLen], st.Digest[:graftDigestLen]) {
			return c
		}
	}
	return nil
}

// pendingRecord is a journal record encoded by the mutation hook and not
// yet appended.
type pendingRecord struct {
	typ     byte
	payload []byte
}

// Durable reports whether the peer journals its mutations.
func (p *Peer) Durable() bool { return p.store != nil }

// StoreErr returns the first journaling failure, if any. After a failure
// the peer keeps serving from memory but stops journaling — the condition
// an operator must notice, so Sweep also surfaces it once via logs at the
// call sites that care.
func (p *Peer) StoreErr() (err error) {
	if p.store != nil {
		p.system.View(func() { err = p.store.err })
	}
	return err
}

// Close flushes and closes the journal (a no-op for in-memory peers).
func (p *Peer) Close() (err error) {
	if p.store != nil {
		p.system.Update(func() { err = p.store.j.Close() })
	}
	return err
}

// Snapshot forces a snapshot-and-compact cycle now (normally triggered
// automatically every Durability.SnapshotEvery records).
func (p *Peer) Snapshot() (err error) {
	if p.store == nil {
		return fmt.Errorf("peer %s: not durable", p.Name)
	}
	p.system.Update(func() { err = p.snapshotLocked() })
	return err
}

// mutated is the mutation hook Open installs on every peer. It encodes
// a growth at most once, the moment it happens — a later graft in the
// same Update may grow or detach the fresh trees, so encoding later would
// record the wrong state — and only when the journal or the document's
// delta log needs it; both then keep the same bytes. A whole-document
// change (nil fresh: a by-hand edit, a seed adoption, an added document)
// resets the log. Every change drops what the memo kept of the document.
func (p *Peer) mutated(doc string, path []core.GraftStep, fresh tree.Forest) {
	var rec []byte
	var err error
	if fresh != nil && (p.store != nil && p.store.err == nil || p.anchors.logging(doc)) {
		rec, err = marshalGraftRecord(doc, path, fresh)
	}
	p.memo.drop(doc)
	p.anchors.grew(doc, rec)
	if p.store != nil {
		p.journalGrowth(doc, fresh == nil, rec, err)
	}
}

// journalGrowth queues a growth for the next flush: its graft record
// (rec, or the error encoding it), or for a whole-document change the
// document state. While journaling is disabled nothing is queued.
func (p *Peer) journalGrowth(doc string, whole bool, rec []byte, err error) {
	st := p.store
	if st.err != nil {
		return
	}
	r := pendingRecord{typ: recGraft, payload: rec}
	if whole {
		r.typ = recDocState
		r.payload, err = MarshalDocRecord(doc, p.system.Document(doc).Root)
	}
	if err != nil {
		p.disableJournal(fmt.Errorf("peer %s: encode journal record for %q: %w", p.Name, doc, err))
		return
	}
	st.pending = append(st.pending, r)
}

// disableJournal records the first journaling failure and stops
// journaling; the in-memory peer keeps working (durability degrades, the
// fleet's convergence does not).
func (p *Peer) disableJournal(err error) {
	st := p.store
	st.err = err
	st.pending = nil
	p.logger.Error("journaling disabled", "peer", p.Name, "err", err)
}

// flushJournalLocked appends the records the mutation hook queued since
// the last flush, in order, then compacts if the snapshot threshold is
// reached. Called (inside p.system.Update) at the end of every mutating
// operation: Sweep, and System — which mirror syncs and push deliveries
// run under. A journaling failure is recorded once and disables further
// journaling.
func (p *Peer) flushJournalLocked() {
	st := p.store
	if st == nil || st.err != nil || len(st.pending) == 0 {
		return
	}
	for _, rec := range st.pending {
		if _, err := st.j.Append(rec.typ, rec.payload); err != nil {
			p.disableJournal(fmt.Errorf("peer %s: journal append: %w", p.Name, err))
			return
		}
		st.sinceSnapshot++
		if rec.typ == recGraft {
			p.metrics.Counter("journal.graft_records").Inc()
		} else {
			p.metrics.Counter("journal.state_records").Inc()
		}
	}
	clear(st.pending)
	st.pending = st.pending[:0]
	if st.snapshotEvery > 0 && st.sinceSnapshot >= st.snapshotEvery {
		if err := p.snapshotLocked(); err != nil {
			p.disableJournal(err)
		}
	}
}

// snapshotLocked writes the full reduced document set as a snapshot
// stamped with the journal's current sequence, then truncates the log.
// It runs under the system's write side, so it marshals the live roots
// directly — and only the documents that moved: the memo's kept bytes of
// a document no change reached since they were encoded are copied, so
// the payload is what MarshalSnapshot would write (memo.snapshot).
// The snapshot holds every growth still pending, which are dropped once
// it is written. The order matters: the snapshot reaches stable storage
// (temp file + fsync + rename) before any log byte disappears, so a
// crash between the two steps merely leaves a log whose records the
// snapshot already covers — which recovery skips by sequence number.
func (p *Peer) snapshotLocked() error {
	st := p.store
	start := time.Now()
	payload, encoded, reused, err := p.memo.snapshot(p.system, st.snapBytes)
	if err != nil {
		return fmt.Errorf("peer %s: encode snapshot: %w", p.Name, err)
	}
	st.snapBytes = len(payload)
	if err := st.j.Sync(); err != nil {
		return fmt.Errorf("peer %s: sync before snapshot: %w", p.Name, err)
	}
	snapPath := filepath.Join(st.dir, SnapshotFile)
	if err := journal.WriteSnapshot(snapPath, st.j.LastSeq(), payload); err != nil {
		return fmt.Errorf("peer %s: write snapshot: %w", p.Name, err)
	}
	clear(st.pending)
	st.pending = st.pending[:0]
	if err := st.j.Reset(); err != nil {
		return fmt.Errorf("peer %s: compact journal: %w", p.Name, err)
	}
	st.sinceSnapshot = 0
	if m := p.metrics; m != nil {
		m.Counter("journal.snapshots").Inc()
		m.Counter("journal.snapshot_bytes").Add(int64(len(payload)))
		m.Counter("journal.snapshot_docs_encoded").Add(int64(encoded))
		m.Counter("journal.snapshot_docs_reused").Add(int64(reused))
		m.Histogram("journal.snapshot_ns").ObserveSince(start)
	}
	if tr := p.tracer; tr.Enabled() {
		tr.Emit(obs.Span{Kind: "snapshot", Name: p.Name, TSUs: tr.Now(),
			DurUs: time.Since(start).Microseconds(),
			Attrs: map[string]int64{"bytes": int64(len(payload))}})
	}
	return nil
}

// AddMirror registers a replica for anti-entropy re-synchronization.
// Mirror syncs run through the peer (m.Sync(p)) as before; registration
// only tells AntiEntropy which replicas to check.
func (p *Peer) AddMirror(m *Mirror) {
	p.mirrorMu.Lock()
	defer p.mirrorMu.Unlock()
	p.mirrors = append(p.mirrors, m)
}

// AntiEntropy compares each registered mirror's last-pulled remote digest
// against the remote peer's advertised document hash and repairs the
// replicas that moved — the catch-up pass a recovered peer runs after
// restart, when remote documents may have grown while it was down (and
// its in-memory digests were lost). The repair is a delta sync: the
// remote answers the graft records since the replica's anchor, so only
// the growth travels; a replica that diverged beyond what the remote can
// anchor (e.g. right after a restart) degrades to a full pull. Returns
// the number of mirrors re-synced. The first error is
// returned after all mirrors were tried; unreachable remotes do not stop
// the others from catching up.
func (p *Peer) AntiEntropy(ctx context.Context) (resynced int, err error) {
	p.mirrorMu.Lock()
	mirrors := append([]*Mirror(nil), p.mirrors...)
	p.mirrorMu.Unlock()
	p.metrics.Counter("peer.antientropy.runs").Inc()
	// One trace per pass: the hash probes and repair syncs of all mirrors
	// stitch together (unless the caller already carries a span).
	if !obs.SpanFromContext(ctx).Valid() && p.tracer.Enabled() {
		ctx = obs.ContextWithSpan(ctx, obs.NewTrace())
	}
	for _, m := range mirrors {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			break
		}
		hashes, herr := p.remote(m.Remote, m.Client).Hashes(ctx)
		if herr != nil {
			p.metrics.Counter("peer.antientropy.errors").Inc()
			if err == nil {
				err = herr
			}
			continue
		}
		remote, ok := hashes[m.RemoteDoc]
		if ok {
			// The probe just observed the origin digest: record it so the
			// lag clock starts at detection, not at the repair sync below.
			p.converge.observe(p.metrics, m.LocalDoc, remote, p.localDigest(m.LocalDoc), false)
		}
		if last := m.acked(); ok && last != "" && remote == last {
			continue // replica provably current
		}
		if _, serr := m.Sync(ctx, p); serr != nil {
			p.metrics.Counter("peer.antientropy.errors").Inc()
			if err == nil {
				err = serr
			}
			continue
		}
		resynced++
	}
	p.metrics.Counter("peer.antientropy.resynced").Add(int64(resynced))
	if resynced > 0 {
		p.logger.Info("anti-entropy resynced mirrors",
			append([]any{"peer", p.Name, "resynced", resynced},
				obs.SpanFromContext(ctx).LogArgs()...)...)
	}
	return resynced, err
}
