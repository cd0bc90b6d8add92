package peer

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"time"

	"axml/internal/core"
	"axml/internal/journal"
	"axml/internal/obs"
)

// Durability: a durable peer journals every mutation of its documents —
// sweep appends, mirror syncs, push deliveries — as full reduced document
// states in an append-only write-ahead log (internal/journal), and
// periodically compacts the log into an atomically-written snapshot.
// Recovery replays snapshot then log, merging each state by least upper
// bound; the paper's monotonicity (Theorem 2.1) is what makes this simple
// scheme correct, because replay can only re-add information. The suffix
// lost to a torn tail or an unsynced batch is re-derived by re-sweeping:
// a peer killed at ANY point restarts into a state from which the fleet
// still converges to the same canonical fixpoint.

// Names of the durability files inside the data directory.
const (
	JournalFile  = "journal.wal"
	SnapshotFile = "snapshot.axs"
)

// recDocState is the journal record type for an ax:doc document-state
// payload (the only record type so far; the tag leaves room for more).
const recDocState byte = 1

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

// store is a peer's durability state, guarded by its system's write side.
type store struct {
	dir           string
	j             *journal.Journal
	snapshotEvery int
	sinceSnapshot int
	err           error // first journaling failure; journaling stops after
}

// openStore recovers the snapshot and journal found in d.Dir into the
// freshly-built system (the persisted document states LUB-merge over the
// seed) and reopens the journal for appending. It runs before the peer
// exists: recovery's Restore merges must not observe a mutation hook
// that would journal them back. The registry and tracer (either may be
// nil) are handed to the journal for its journal.* metrics and fsync
// spans.
func openStore(name string, s *core.System, d Durability, m *obs.Registry, tr *obs.Tracer) (*store, RecoveryInfo, error) {
	var info RecoveryInfo
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, info, err
	}

	// 1. Snapshot: the compacted history up to SnapshotSeq.
	snapPath := filepath.Join(d.Dir, SnapshotFile)
	snapSeq, payload, err := journal.ReadSnapshot(snapPath)
	switch {
	case err == nil:
		docs, err := UnmarshalSnapshot(payload)
		if err != nil {
			return nil, info, fmt.Errorf("peer %s: decode snapshot: %w", name, err)
		}
		for _, doc := range docs {
			if _, err := s.Restore(doc.Name, doc.Root); err != nil {
				return nil, info, fmt.Errorf("peer %s: restore snapshot: %w", name, err)
			}
		}
		info.SnapshotSeq = snapSeq
		info.Recovered = true
	case os.IsNotExist(err):
		// Cold start or journal-only state.
	default:
		return nil, info, fmt.Errorf("peer %s: read snapshot: %w", name, err)
	}

	// 2. Journal: every mutation after the snapshot. Records the
	// snapshot already covers are skipped (merging them anyway would be
	// harmless — the merge is idempotent — but pointless); a snapshot
	// newer than the log tail therefore recovers from the snapshot
	// alone.
	logPath := filepath.Join(d.Dir, JournalFile)
	replayInfo, err := journal.Replay(logPath, func(rec journal.Record) error {
		if rec.Seq <= snapSeq || rec.Type != recDocState {
			return nil
		}
		docName, root, err := UnmarshalDocRecord(rec.Payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		if _, err := s.Restore(docName, root); err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
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

	snapshotEvery := d.SnapshotEvery
	if snapshotEvery == 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	return &store{dir: d.Dir, j: j, snapshotEvery: snapshotEvery}, info, nil
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

// flushJournalLocked appends one doc-state record per document mutated
// since the last flush, then compacts if the snapshot threshold is
// reached. Called (inside p.system.Update) at the end of every mutating
// operation: Sweep, and System — which mirror syncs and push deliveries
// run under. A journaling failure is recorded once and disables further
// journaling; the in-memory peer keeps working (durability degrades, the
// fleet's convergence does not).
func (p *Peer) flushJournalLocked() {
	st := p.store
	if st == nil || st.err != nil || len(p.dirty) == 0 {
		return
	}
	names := make([]string, 0, len(p.dirty))
	for name := range p.dirty {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		doc := p.system.Document(name)
		if doc == nil {
			delete(p.dirty, name)
			continue
		}
		payload, err := MarshalDocRecord(name, doc.Root)
		if err != nil {
			st.err = fmt.Errorf("peer %s: encode journal record for %q: %w", p.Name, name, err)
			p.logger.Error("journaling disabled", "peer", p.Name, "err", st.err)
			return
		}
		if _, err := st.j.Append(recDocState, payload); err != nil {
			st.err = fmt.Errorf("peer %s: journal append for %q: %w", p.Name, name, err)
			p.logger.Error("journaling disabled", "peer", p.Name, "err", st.err)
			return
		}
		delete(p.dirty, name)
		st.sinceSnapshot++
	}
	if st.snapshotEvery > 0 && st.sinceSnapshot >= st.snapshotEvery {
		if err := p.snapshotLocked(); err != nil {
			st.err = err
			p.logger.Error("journaling disabled", "peer", p.Name, "err", st.err)
		}
	}
}

// snapshotLocked writes the full reduced document set as a snapshot
// stamped with the journal's current sequence, then truncates the log.
// The order matters: the snapshot reaches stable storage (temp file +
// fsync + rename) before any log byte disappears, so a crash between the
// two steps merely leaves a log whose records the snapshot already covers
// — which recovery skips by sequence number.
func (p *Peer) snapshotLocked() error {
	st := p.store
	start := time.Now()
	payload, err := MarshalSnapshot(p.system.Snapshot())
	if err != nil {
		return fmt.Errorf("peer %s: encode snapshot: %w", p.Name, err)
	}
	if err := st.j.Sync(); err != nil {
		return fmt.Errorf("peer %s: sync before snapshot: %w", p.Name, err)
	}
	snapPath := filepath.Join(st.dir, SnapshotFile)
	if err := journal.WriteSnapshot(snapPath, st.j.LastSeq(), payload); err != nil {
		return fmt.Errorf("peer %s: write snapshot: %w", p.Name, err)
	}
	if err := st.j.Reset(); err != nil {
		return fmt.Errorf("peer %s: compact journal: %w", p.Name, err)
	}
	st.sinceSnapshot = 0
	if m := p.metrics; m != nil {
		m.Counter("journal.snapshots").Inc()
		m.Counter("journal.snapshot_bytes").Add(int64(len(payload)))
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
// remote prunes everything below digest-matched subtrees, so only
// divergent fringes travel; a replica that diverged beyond what the
// remote can anchor (e.g. right after a restart) degrades to a full
// pull. Returns the number of mirrors re-synced. The first error is
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
		if ok && m.lastRemote != "" && remote == m.lastRemote {
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
