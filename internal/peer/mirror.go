package peer

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/tree"
)

// Mirror maintains a local replica of a remote peer's document — the
// replication flavor of AXML distribution (the paper's follow-up work on
// dynamic XML documents with distribution and replication, cited in
// Section 1, made concrete on this substrate). Each Sync asks the remote
// for the growth since the last acknowledged digest (a conditional read
// of PathDoc, Client.Delta) and merges it into the local copy with the
// least upper bound ∪ of Section 2.1, so syncs are monotone and
// idempotent: replaying, duplicating or interleaving them can only add
// information, never lose it. When the remote cannot serve a delta
// (anchor evicted, first sync) or the local replica diverged from the
// anchor (a record's path misses), Sync falls back to merging the full
// tree — the delta path is an optimization over the same merge, never a
// different semantics. One Mirror's syncs run one at a time.
type Mirror struct {
	// Remote is the remote peer's base URL.
	Remote string
	// RemoteDoc is the document name on the remote peer.
	RemoteDoc string
	// LocalDoc is the local document name the replica lives under.
	LocalDoc string
	// Client is the HTTP client; nil means the syncing peer's (WithClient).
	Client *http.Client

	// Syncs counts the completed synchronizations.
	Syncs int
	// LastChanged records whether the last sync brought new data.
	LastChanged bool

	// mu serializes Sync, which writes Syncs, LastChanged and lastRemote:
	// a sync starting from a stale lastRemote would replay records the
	// replica already holds.
	mu sync.Mutex
	// lastRemote is the digest of the remote tree as of the last sync —
	// the anchor the next sync's read names in If-None-Match, and what the
	// anti-entropy pass compares against the remote's advertised hash to
	// skip documents that have not moved. Empty until the first sync (and
	// after a restart: the field is not persisted, so a recovered peer's
	// first sync is a full pull).
	lastRemote string
}

// acked is lastRemote, read between syncs.
func (m *Mirror) acked() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastRemote
}

// Sync synchronizes the replica once and reports whether it grew. It
// requests a delta since the last acknowledged remote digest; the answer
// is either nothing (already current), the origin's graft records
// replayed in place, or the full tree merged by System.Restore. Syncs
// record into the peer's registry (peer.mirror.syncs/changed/errors/
// deltas/fallbacks, sync_ns) and emit a "sync" span when the peer
// carries a tracer.
func (m *Mirror) Sync(ctx context.Context, p *Peer) (changed bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The sync span parents the delta exchange: its context rides ctx so
	// the remote's "http" span joins the same trace.
	parent := obs.SpanFromContext(ctx)
	var syncSC obs.SpanContext
	if parent.Valid() || p.tracer.Enabled() {
		syncSC = parent.NewChild()
		ctx = obs.ContextWithSpan(ctx, syncSC)
	}
	start := time.Now()
	startTS := p.tracer.Now()
	remote := p.remote(m.Remote, m.Client)
	d, err := remote.Delta(ctx, m.RemoteDoc, m.lastRemote)
	if err != nil {
		p.metrics.Counter("peer.mirror.errors").Inc()
		return false, err
	}

	if d.Mode != DeltaSame { // same: already current, nothing to merge
		changed, err = m.merge(p, d)
	}
	if errors.Is(err, errDiverged) {
		// The replica diverged from the anchor the records start from
		// (local-only growth, a missed delivery, a restart): repair with
		// a full pull — an anchorless read answers only 200. Records
		// applied before the miss were exact origin growths.
		p.metrics.Counter("peer.mirror.delta_fallbacks").Inc()
		if d, err = remote.Delta(ctx, m.RemoteDoc, ""); err == nil {
			var grew bool
			grew, err = m.merge(p, d)
			changed = changed || grew
		}
	} else if err == nil && d.Mode == DeltaLog {
		p.metrics.Counter("peer.mirror.deltas").Inc()
	}
	if err != nil {
		p.metrics.Counter("peer.mirror.errors").Inc()
		return false, err
	}

	m.Syncs++
	m.LastChanged = changed
	m.lastRemote = d.To
	p.metrics.Counter("peer.mirror.syncs").Inc()
	p.metrics.Histogram("peer.mirror.sync_ns").ObserveSince(start)
	if changed {
		p.metrics.Counter("peer.mirror.changed").Inc()
	}
	// Convergence watermark: Delta.To, the answer's ETag, is the origin
	// digest this sync observed; compare it with the local digest it left
	// behind.
	p.converge.observe(p.metrics, m.LocalDoc, d.To, p.localDigest(m.LocalDoc), changed)
	if tr := p.tracer; tr.Enabled() {
		var grew int64
		if changed {
			grew = 1
		}
		tr.Emit(obs.Span{Kind: "sync", Name: m.LocalDoc, TSUs: startTS,
			DurUs: time.Since(start).Microseconds(),
			Attrs: map[string]int64{"changed": grew}}.WithContext(syncSC, parent))
	}
	return changed, nil
}

// errDiverged reports a record whose path has no counterpart in the
// receiver's tree — the signal to fall back to a full pull.
var errDiverged = errors.New("peer: delta does not resolve (tree diverged)")

// merge brings a delta's payload into the local replica: a full tree by
// least upper bound (System.Restore — the pre-delta sync semantics, and
// the fallback every delta failure reduces to), records as the grafts
// they resolve to (System.Append), so only what arrives is stamped new.
// Records replay in order, each resolved against the state its
// predecessors left; the first whose path does not resolve stops the
// replay with errDiverged, before anything of it is appended.
func (m *Mirror) merge(p *Peer, d Delta) (changed bool, err error) {
	p.System(func(s *core.System) {
		if d.Mode == DeltaFull {
			changed, err = s.Restore(m.LocalDoc, d.Full)
			return
		}
		local := s.Document(m.LocalDoc)
		if local == nil {
			err = fmt.Errorf("peer: mirror target document %q missing", m.LocalDoc)
			return
		}
		for _, r := range d.Log {
			at, depth := resolveGraft(local.Root, r.Path)
			if depth < len(r.Path) {
				err = errDiverged
				return
			}
			var grew bool
			if grew, err = s.Append(m.LocalDoc, at, r.Fresh); err != nil {
				return
			}
			changed = changed || grew
		}
	})
	return changed, err
}

// SyncUntilStable repeatedly syncs (with the remote possibly evolving
// between rounds via its own services) until a sync brings nothing new or
// the round budget is exhausted. It returns the number of rounds and
// whether stability was reached.
func (m *Mirror) SyncUntilStable(ctx context.Context, p *Peer, maxRounds int) (rounds int, stable bool, err error) {
	if maxRounds <= 0 {
		maxRounds = 100
	}
	for rounds < maxRounds {
		rounds++
		changed, err := m.Sync(ctx, p)
		if err != nil {
			return rounds, false, err
		}
		if !changed {
			return rounds, true, nil
		}
	}
	return rounds, false, nil
}

// NewReplicaDoc builds an empty local replica root matching a remote
// document's root marking, ready to be added to a system and mirrored.
func NewReplicaDoc(name string, rootLabel string) *tree.Document {
	return tree.NewDocument(name, tree.NewLabel(rootLabel))
}
