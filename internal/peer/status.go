package peer

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"axml/internal/obs"
)

// The fleet health surface: GET /axml/status answers one JSON
// StatusReport — the peer's identity, readiness, runtime footprint and
// per-document convergence watermarks — cheap enough for a dashboard or
// cmd/axml-status to poll every few seconds. FormatFleetStatus renders
// a set of reports as the operator table.

// DocStatus is one document's convergence state in a StatusReport.
type DocStatus struct {
	Doc         string `json:"doc"`
	LocalDigest string `json:"local_digest"`
	// OriginDigest is the last origin digest a replication path observed;
	// empty for documents this peer originates (or has never synced).
	OriginDigest string `json:"origin_digest,omitempty"`
	// Converged reports local == origin; vacuously true with no origin.
	Converged bool `json:"converged"`
	// LastAdvanceMs is how many ms ago replication last advanced the
	// local digest; -1 when it never has.
	LastAdvanceMs int64 `json:"last_advance_ms"`
	// LagNs is the last measured divergence→convergence interval
	// (0 = never measured).
	LagNs int64 `json:"lag_ns,omitempty"`
	// LogRecords and LogBytes size the graft records the peer keeps for
	// delta answers about this document (0 until one of its states is
	// served).
	LogRecords int64 `json:"log_records,omitempty"`
	LogBytes   int64 `json:"log_bytes,omitempty"`
	// Indexed reports that a match has built the document's inverted
	// index (a document nobody matches, such as an inbox, never does).
	Indexed bool `json:"indexed"`
}

// StatusReport is the /axml/status body.
type StatusReport struct {
	Peer     string `json:"peer"`
	Ready    bool   `json:"ready"`
	ReadyErr string `json:"ready_err,omitempty"`
	Durable  bool   `json:"durable"`
	UptimeMs int64  `json:"uptime_ms"`

	Goroutines int    `json:"goroutines"`
	HeapBytes  uint64 `json:"heap_bytes"`

	Sweeps   int `json:"sweeps"`
	Steps    int `json:"steps"`
	Served   int `json:"served"`
	Failures int `json:"failures"`

	// The sterile-call gate over the peer's sweeps (Stats): evaluations
	// dispatched, calls skipped as sterile, evaluations run on a delta.
	CallsFired   int `json:"calls_fired"`
	CallsSterile int `json:"calls_sterile"`
	DeltaEvals   int `json:"delta_evals"`
	CallsBatched int `json:"calls_batched"` // fired calls sent in batches

	// Contended acquisitions of the system's lock since the peer opened
	// (core.System.LockContention): reads and evaluations that met a write
	// in progress; merges, pushes and flushes that had to queue.
	LockReaderWaits uint64 `json:"lock_reader_waits"`
	LockWriterWaits uint64 `json:"lock_writer_waits"`

	// Documents a durable peer's snapshots encoded, and copied unchanged.
	SnapshotDocsEncoded int64 `json:"snapshot_docs_encoded"`
	SnapshotDocsReused  int64 `json:"snapshot_docs_reused"`

	// The served-bytes memo: document states and declarative answers
	// served from kept bytes (hits) and encoded (misses), and the bytes
	// it holds.
	MemoDocHits      int64 `json:"memo_doc_hits"`
	MemoDocMisses    int64 `json:"memo_doc_misses"`
	MemoAnswerHits   int64 `json:"memo_answer_hits"`
	MemoAnswerMisses int64 `json:"memo_answer_misses"`
	MemoBytes        int64 `json:"memo_bytes"`

	Docs []DocStatus `json:"docs"`
}

// ReadyChecks returns the peer's readiness probes for obs.ReadyHandler:
// currently "journal" (the durability layer has not hit a sticky write
// error; trivially ready for in-memory peers). An embedding site may
// append probes of its own.
func (p *Peer) ReadyChecks() []obs.Check {
	return []obs.Check{{
		Name: "journal",
		Probe: func() error {
			if err := p.StoreErr(); err != nil {
				return fmt.Errorf("journal failing: %w", err)
			}
			return nil
		},
	}}
}

// Status assembles the peer's current status report.
func (p *Peer) Status() StatusReport {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep := StatusReport{
		Peer:       p.Name,
		Ready:      true,
		Durable:    p.Durable(),
		UptimeMs:   int64(time.Since(p.started) / time.Millisecond),
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
	}
	for _, c := range p.ReadyChecks() {
		if err := c.Probe(); err != nil {
			rep.Ready = false
			rep.ReadyErr = c.Name + ": " + err.Error()
			break
		}
	}
	marks := p.converge.snapshot()
	now := p.converge.now()
	st := p.Stats()
	rep.Sweeps, rep.Steps, rep.Served, rep.Failures = st.Sweeps, st.Steps, st.Served, st.Failures
	rep.CallsFired, rep.CallsSterile, rep.DeltaEvals = st.CallsFired, st.CallsSterile, st.DeltaEvals
	rep.CallsBatched = st.CallsBatched
	rep.LockReaderWaits, rep.LockWriterWaits = p.system.LockContention()
	if p.store != nil {
		rep.SnapshotDocsEncoded = p.metrics.Counter("journal.snapshot_docs_encoded").Value()
		rep.SnapshotDocsReused = p.metrics.Counter("journal.snapshot_docs_reused").Value()
	}
	m := p.memo
	rep.MemoDocHits, rep.MemoDocMisses = m.docHit.Value(), m.docMiss.Value()
	rep.MemoAnswerHits, rep.MemoAnswerMisses = m.answerHit.Value(), m.answerMiss.Value()
	rep.MemoBytes = m.size()
	p.system.View(func() {
		for _, name := range p.system.DocNames() {
			ds := DocStatus{
				Doc:           name,
				LocalDigest:   digestHex(p.system.Document(name).Root),
				LastAdvanceMs: -1,
				Indexed:       p.system.Index(name).Builds() > 0,
			}
			ds.LogRecords, ds.LogBytes = p.anchors.size(name)
			if w, ok := marks[name]; ok {
				ds.OriginDigest = w.origin
				ds.LagNs = int64(w.lastLag)
				if !w.lastAdvance.IsZero() {
					ds.LastAdvanceMs = int64(now.Sub(w.lastAdvance) / time.Millisecond)
				}
			}
			// Converged compares against the live local digest, not the one
			// recorded at the last exchange: a local write after convergence
			// legitimately moves this peer ahead of its recorded origin.
			ds.Converged = ds.OriginDigest == "" || ds.OriginDigest == ds.LocalDigest
			rep.Docs = append(rep.Docs, ds)
		}
	})
	sort.Slice(rep.Docs, func(i, j int) bool { return rep.Docs[i].Doc < rep.Docs[j].Doc })
	return rep
}

func (p *Peer) handleStatus(w http.ResponseWriter, r *http.Request) {
	data, err := json.MarshalIndent(p.Status(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(data)
	w.Write([]byte("\n"))
}

// Status fetches a peer's /axml/status report.
func (c *Client) Status(ctx context.Context) (StatusReport, error) {
	body, _, err := c.call(ctx, "status "+c.BaseURL, http.MethodGet, PathStatus, "", nil)
	if err != nil {
		return StatusReport{}, err
	}
	var rep StatusReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return StatusReport{}, fmt.Errorf("peer: status %s: %w", c.BaseURL, err)
	}
	return rep, nil
}

// FormatFleetStatus renders one convergence/lag/health table row per
// document per peer (LOCKWAIT is the peer's lock_reader_waits/
// lock_writer_waits), plus a summary line per unreachable peer (errs maps
// peer label -> fetch error; may be nil). The output is stable: peers
// sort by name, documents by name within a peer.
func FormatFleetStatus(reports []StatusReport, errs map[string]error) string {
	sorted := make([]StatusReport, len(reports))
	copy(sorted, reports)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Peer < sorted[j].Peer })

	var b strings.Builder
	w := func(cols ...string) {
		widths := []int{10, 14, 16, 16, 9, 12, 10, 9, 8}
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cols)-1 && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	w("PEER", "DOC", "LOCAL", "ORIGIN", "CONVERGED", "ADVANCED", "LAG", "LOCKWAIT", "HEALTH")
	for _, rep := range sorted {
		health := "ready"
		if !rep.Ready {
			health = "NOT READY"
		}
		waits := fmt.Sprintf("%d/%d", rep.LockReaderWaits, rep.LockWriterWaits)
		if len(rep.Docs) == 0 {
			w(rep.Peer, "-", "-", "-", "-", "-", "-", waits, health)
			continue
		}
		for _, d := range rep.Docs {
			conv := "yes"
			if !d.Converged {
				conv = "NO"
			}
			origin := d.OriginDigest
			if origin == "" {
				origin = "(origin)"
			}
			adv := "-"
			if d.LastAdvanceMs >= 0 {
				adv = fmt.Sprintf("%dms ago", d.LastAdvanceMs)
			}
			lag := "-"
			if d.LagNs > 0 {
				lag = time.Duration(d.LagNs).Round(time.Microsecond).String()
			}
			w(rep.Peer, d.Doc, d.LocalDigest, origin, conv, adv, lag, waits, health)
		}
	}
	names := make([]string, 0, len(errs))
	for name := range errs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s: unreachable: %v\n", name, errs[name])
	}
	return b.String()
}
