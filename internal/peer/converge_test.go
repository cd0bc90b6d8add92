package peer

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
)

// The lag clock runs entirely on the local clock: it starts when a
// divergent origin digest is first observed and closes when the local
// digest catches up, so cross-host clock skew never pollutes the
// histogram.
func TestConvergenceLagMeasurement(t *testing.T) {
	reg := obs.NewRegistry()
	cv := newConvergence()
	clock := time.Unix(1000, 0)
	cv.now = func() time.Time { return clock }

	// An anti-entropy probe learns the origin moved ahead; we are behind.
	cv.observe(reg, "d", "aaaa", "bbbb", false)
	if got := cv.docsTracked(); got != 1 {
		t.Fatalf("docsTracked = %d, want 1", got)
	}
	if got := cv.docsBehind(); got != 1 {
		t.Fatalf("docsBehind = %d, want 1", got)
	}
	if got := reg.Histogram("peer.converge.lag_ns").Snapshot().Count; got != 0 {
		t.Fatalf("lag samples before convergence = %d, want 0", got)
	}

	// 150ms later a sync catches the replica up: one lag sample of 150ms.
	clock = clock.Add(150 * time.Millisecond)
	cv.observe(reg, "d", "aaaa", "aaaa", true)
	if got := cv.docsBehind(); got != 0 {
		t.Fatalf("docsBehind after convergence = %d, want 0", got)
	}
	if got := reg.Counter("peer.converge.advances").Value(); got != 1 {
		t.Fatalf("advances = %d, want 1", got)
	}
	lag := reg.Histogram("peer.converge.lag_ns").Snapshot()
	if lag.Count != 1 {
		t.Fatalf("lag samples = %d, want 1", lag.Count)
	}
	if want := int64(150 * time.Millisecond); lag.Max < want || lag.Max > 2*want {
		t.Fatalf("lag sample = %v, want about %v", time.Duration(lag.Max), 150*time.Millisecond)
	}

	// Already-converged observations (steady-state syncs) add no samples.
	clock = clock.Add(time.Second)
	cv.observe(reg, "d", "aaaa", "aaaa", false)
	if got := reg.Histogram("peer.converge.lag_ns").Snapshot().Count; got != 1 {
		t.Fatalf("steady-state sync grew the lag histogram to %d samples", got)
	}

	w := cv.snapshot()["d"]
	if w.origin != "aaaa" || w.local != "aaaa" || w.lastLag != 150*time.Millisecond {
		t.Fatalf("watermark = %+v", w)
	}
}

// Mirror replication feeds the convergence watermarks end to end: after
// a sync the replica's watermark holds the origin digest, the registry
// gauges see the document, and /axml/status reports it converged.
func TestStatusEndpointAndConvergenceGauges(t *testing.T) {
	reg := obs.NewRegistry()
	origin, _, err := Open("origin", core.MustParseSystem(`doc d = a{b{"1"}}`), WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(origin.Handler())
	defer srv.Close()

	replica, _, err := Open("replica", core.MustParseSystem(`doc d = a`), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	m := &Mirror{Remote: srv.URL, RemoteDoc: "d", LocalDoc: "d"}
	if _, err := m.Sync(context.Background(), replica); err != nil {
		t.Fatal(err)
	}

	vars := obs.FlattenSnapshot(reg)
	if got := vars["peer.converge.docs"]; got != 1 {
		t.Fatalf("peer.converge.docs = %v, want 1", got)
	}
	if got := vars["peer.converge.behind"]; got != 0 {
		t.Fatalf("peer.converge.behind = %v, want 0", got)
	}
	if got := vars["peer.converge.advances"]; got != 1 {
		t.Fatalf("peer.converge.advances = %v, want 1", got)
	}

	// The status endpoint round-trips through the typed client.
	repSrv := httptest.NewServer(replica.Handler())
	defer repSrv.Close()
	rep, err := NewClient(repSrv.URL, nil).Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peer != "replica" || !rep.Ready {
		t.Fatalf("status = %+v, want ready peer 'replica'", rep)
	}
	if len(rep.Docs) != 1 || rep.Docs[0].Doc != "d" {
		t.Fatalf("status docs = %+v, want [d]", rep.Docs)
	}
	d := rep.Docs[0]
	if !d.Converged || d.OriginDigest == "" || d.OriginDigest != d.LocalDigest {
		t.Fatalf("doc status = %+v, want converged with matching digests", d)
	}
	if d.LastAdvanceMs < 0 {
		t.Fatalf("doc status never advanced: %+v", d)
	}

	// The fleet table renders both peers plus an unreachable line.
	originRep := origin.Status()
	table := FormatFleetStatus([]StatusReport{rep, originRep},
		map[string]error{"gone": context.DeadlineExceeded})
	for _, want := range []string{"PEER", "replica", "origin", "(origin)", "yes", "LOCKWAIT", "0/0", "ready", "gone: unreachable"} {
		if !strings.Contains(table, want) {
			t.Fatalf("fleet table missing %q:\n%s", want, table)
		}
	}
}
