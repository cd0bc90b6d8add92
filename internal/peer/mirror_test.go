package peer

import (
	"context"
	"net/http/httptest"
	"testing"

	"axml/internal/core"
	"axml/internal/syntax"
	"axml/internal/tree"
)

func TestMirrorSyncMergesMonotonically(t *testing.T) {
	remoteSys := core.MustParseSystem(`doc catalog = cat{item{"a"},item{"b"}}`)
	remotePeer := mustOpen("remote", remoteSys)
	srv := httptest.NewServer(remotePeer.Handler())
	defer srv.Close()

	localSys := core.MustParseSystem(`doc replica = cat{item{"local-only"}}`)
	local := mustOpen("local", localSys)
	m := &Mirror{Remote: srv.URL, RemoteDoc: "catalog", LocalDoc: "replica"}

	changed, err := m.Sync(context.Background(), local)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("first sync brought nothing")
	}
	// Merge keeps local-only data (union semantics).
	want := syntax.MustParseDocument(`cat{item{"local-only"},item{"a"},item{"b"}}`)
	local.System(func(s *core.System) {
		if !tree.Isomorphic(s.Document("replica").Root, want) {
			t.Fatalf("replica = %s", s.Document("replica").Root.CanonicalString())
		}
	})
	// Idempotent: second sync changes nothing.
	changed, err = m.Sync(context.Background(), local)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("idempotent re-sync reported change")
	}
	if m.Syncs != 2 || m.LastChanged {
		t.Fatalf("stats: %+v", m)
	}
}

func TestMirrorSyncUntilStableWithEvolvingRemote(t *testing.T) {
	// The remote document grows via its own service between syncs.
	remoteSys := core.MustParseSystem(`
doc catalog = cat{item{"a"},!grow}
func grow = item{"b"} :-
`)
	remotePeer := mustOpen("remote", remoteSys)
	srv := httptest.NewServer(remotePeer.Handler())
	defer srv.Close()

	localSys := core.NewSystem()
	if err := localSys.AddDocument(NewReplicaDoc("replica", "cat")); err != nil {
		t.Fatal(err)
	}
	local := mustOpen("local", localSys)
	m := &Mirror{Remote: srv.URL, RemoteDoc: "catalog", LocalDoc: "replica"}

	// First round of syncs before the remote evolves.
	if _, err := m.Sync(context.Background(), local); err != nil {
		t.Fatal(err)
	}
	// Remote evolves; replica catches up and stabilizes.
	remotePeer.Sweep()
	rounds, stable, err := m.SyncUntilStable(context.Background(), local, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatalf("not stable after %d rounds", rounds)
	}
	local.System(func(s *core.System) {
		got := s.Document("replica").Root
		found := map[string]bool{}
		got.Walk(func(n, _ *tree.Node) bool {
			if n.Kind == tree.Value {
				found[n.Name] = true
			}
			return true
		})
		if !found["a"] || !found["b"] {
			t.Fatalf("replica missed data: %s", got.CanonicalString())
		}
	})
}

func TestMirrorErrors(t *testing.T) {
	remoteSys := core.MustParseSystem(`doc catalog = cat{item{"a"}}`)
	srv := httptest.NewServer(mustOpen("remote", remoteSys).Handler())
	defer srv.Close()

	local := mustOpen("local", core.MustParseSystem(`doc other = zzz{x{"1"}}
doc seed = guess`))
	m := &Mirror{Remote: srv.URL, RemoteDoc: "catalog", LocalDoc: "missing"}
	if _, err := m.Sync(context.Background(), local); err == nil {
		t.Fatal("missing local doc accepted")
	}
	m = &Mirror{Remote: srv.URL, RemoteDoc: "catalog", LocalDoc: "other"}
	if _, err := m.Sync(context.Background(), local); err == nil {
		t.Fatal("incomparable roots accepted")
	}
	m = &Mirror{Remote: srv.URL, RemoteDoc: "nope", LocalDoc: "other"}
	if _, err := m.Sync(context.Background(), local); err == nil {
		t.Fatal("missing remote doc accepted")
	}
	// A childless label seed carries no information: the first sync
	// adopts the remote root marking instead of refusing forever (the
	// axml-peer CLI seeds undeclared mirror targets this way).
	m = &Mirror{Remote: srv.URL, RemoteDoc: "catalog", LocalDoc: "seed"}
	if changed, err := m.Sync(context.Background(), local); err != nil || !changed {
		t.Fatalf("virgin seed sync: changed=%v err=%v", changed, err)
	}
	local.System(func(s *core.System) {
		root := s.Document("seed").Root
		if root.Name != "cat" || len(root.Children) == 0 {
			t.Fatalf("seed did not adopt remote root: %s", root.CanonicalString())
		}
	})
}
