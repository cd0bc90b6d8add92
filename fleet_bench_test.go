// BenchmarkFleet measures what the delta replication protocol buys on
// the wire: propagating one increment of a large document to an
// up-to-date replica, as propagate/full (an unanchored mirror re-pulls
// and re-merges the whole tree every sync — the pre-delta protocol) vs
// propagate/delta (a digest-anchored mirror receives only the divergent
// fringe). Each variant also reports the remote's served bytes per sync
// (wireB/op), the number `make bench-fleet` records into
// BENCH_fleet.json — delta wire bytes must stay flat as the document
// grows, where full re-pull is linear.
package axml_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// benchFleetEntries is the replicated document's size in entries (three
// nodes each); big enough that a full re-pull is visibly linear.
const benchFleetEntries = 500

func benchFleetGrow(p *peer.Peer, doc string, from, to int) {
	p.System(func(s *core.System) {
		root := s.Document(doc).Root
		for i := from; i < to; i++ {
			root.Children = append(root.Children, syntax.MustParseDocument(
				fmt.Sprintf(`entry{id{"%06d"},body{"payload-%06d"}}`, i, i)))
		}
		tree.InvalidateDigestAll(root)
		subsume.ReduceInPlace(root)
		s.Touch(doc)
	})
}

func BenchmarkFleet(b *testing.B) {
	for _, variant := range []string{"full", "delta"} {
		b.Run("propagate/"+variant, func(b *testing.B) {
			reg := obs.NewRegistry()
			remote, _, err := peer.Open("store",
				core.MustParseSystem(`doc log = log`), peer.WithObservability(reg))
			if err != nil {
				b.Fatal(err)
			}
			benchFleetGrow(remote, "log", 0, benchFleetEntries)
			srv := httptest.NewServer(remote.Handler())
			defer srv.Close()

			local, _, err := peer.Open("replica", core.NewSystem())
			if err != nil {
				b.Fatal(err)
			}
			local.System(func(s *core.System) {
				if err := s.AddDocument(peer.NewReplicaDoc("log", "log")); err != nil {
					b.Fatal(err)
				}
			})
			ctx := context.Background()
			m := &peer.Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
			if _, err := m.Sync(ctx, local); err != nil { // seed the replica
				b.Fatal(err)
			}
			served := func() int64 {
				return reg.Counter("peer.http.bytes_out.delta").Value() +
					reg.Counter("peer.http.bytes_out.doc").Value()
			}

			grown := benchFleetEntries
			var wire int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				benchFleetGrow(remote, "log", grown, grown+1)
				grown++
				if variant == "full" {
					// A fresh mirror has no anchor: every sync is the
					// pre-delta full pull-and-merge.
					m = &peer.Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
				}
				before := served()
				b.StartTimer()
				if _, err := m.Sync(ctx, local); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				wire += served() - before
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
		})
	}
}
