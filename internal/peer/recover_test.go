package peer

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/journal"
	"axml/internal/pattern"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// push delivers forest to the subscriber's id through its handler and
// returns the status code.
func push(t *testing.T, sb *Subscriber, id string, forest tree.Forest) int {
	t.Helper()
	data, err := MarshalForest(forest)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	sb.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, PathPush+id, bytes.NewReader(data)))
	return w.Code
}

// A Subscriber registered on a replica seed's root keeps delivering after
// a recovery or first sync adopts the remote root marking: the marking is
// adopted on the seed's own root node.
func TestSubscriberOnSeedRootSurvivesMarkingAdoption(t *testing.T) {
	sys := core.NewSystem()
	if err := sys.AddDocument(NewReplicaDoc("r", "guess")); err != nil {
		t.Fatal(err)
	}
	p, _, err := Open("sub", sys)
	if err != nil {
		t.Fatal(err)
	}
	sb := NewSubscriber(p)
	p.System(func(s *core.System) { sb.Register("in", "r", s.Document("r").Root) })
	p.System(func(s *core.System) {
		if _, err = s.Restore("r", syntax.MustParseDocument(`log{entry{"a"}}`)); err != nil {
			t.Fatal(err)
		}
	})
	if code := push(t, sb, "in", tree.Forest{syntax.MustParseDocument(`entry{"b"}`)}); code != http.StatusOK {
		t.Fatalf("a push onto the adopted root answered %d", code)
	}
	want := syntax.MustParseDocument(`log{entry{"a"},entry{"b"}}`)
	if got := portalDoc(p, "r"); !tree.Isomorphic(got, want) {
		t.Fatalf("replica %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
}

// A recovered durable peer with no service builds no index: not at
// open, and not for the pushes it takes afterwards. The first match on a
// document builds that document's, and /axml/status shows where.
func TestRecoveredPeerBuildsNoIndex(t *testing.T) {
	dir := t.TempDir()
	buildRecoverImage(t, dir, 16, 10, 8)
	p, _, err := Open("recovered", recoverSeed(16), WithDurability(Durability{Dir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sb := NewSubscriber(p)
	p.System(func(s *core.System) {
		for _, name := range s.DocNames() {
			sb.Register(name, name, s.Document(name).Root)
		}
	})
	for i := 0; i < 100; i++ {
		entry := tree.NewLabel("entry", tree.NewLabel("id", tree.NewValue(fmt.Sprintf("p%d", i))))
		if code := push(t, sb, fmt.Sprintf("inbox%03d", i%16), tree.Forest{entry}); code != http.StatusOK {
			t.Fatalf("push %d answered %d", i, code)
		}
	}
	indexed := func() (names []string) {
		for _, d := range p.Status().Docs {
			if d.Indexed {
				names = append(names, d.Doc)
			}
		}
		return names
	}
	p.System(func(s *core.System) {
		if n := s.IndexBuilds(); n != 0 {
			t.Fatalf("recovery and 100 pushes built %d indexes", n)
		}
	})
	if got := indexed(); len(got) != 0 {
		t.Fatalf("status shows indexes on %v", got)
	}
	var v pattern.Vars
	c := v.Compile(pattern.Label("inbox", pattern.Label("entry", pattern.Label("id", pattern.Value("p3")))))
	p.System(func(s *core.System) {
		if rows := s.Index("inbox003").MatchRows(c, s.Document("inbox003").Root, pattern.NewSlab(&v).Row(), 0); len(rows) != 1 {
			t.Fatalf("%d rows, want 1", len(rows))
		}
	})
	if got := indexed(); len(got) != 1 || got[0] != "inbox003" {
		t.Fatalf("status shows indexes on %v, want inbox003 alone", got)
	}
}

// The recovered digest equals the live peer's whatever the decode and
// reduce fan-out's width — one worker, or more than the box has cores —
// and the snapshot's documents come back in file order.
func TestRecoveryAcrossWidths(t *testing.T) {
	image := t.TempDir()
	want := buildRecoverImage(t, image, 64, 6, 16)
	_, payload, err := journal.ReadSnapshot(filepath.Join(image, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, width := range []int{1, 4} {
		runtime.GOMAXPROCS(width)
		dir := t.TempDir()
		for _, name := range []string{SnapshotFile, JournalFile} {
			if err := os.WriteFile(filepath.Join(dir, name), mustRead(t, filepath.Join(image, name)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p, _, err := Open("recovered", recoverSeed(64), WithDurability(Durability{Dir: dir}))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Hash(); got != want {
			t.Errorf("GOMAXPROCS %d: recovered digest %s, want %s", width, got, want)
		}
		p.Close()

		// The first document outweighs the rest together: later spans
		// finish first, and must still come back after it.
		big := tree.NewLabel("inbox")
		for i := 0; i < 3000; i++ {
			big.Add(tree.NewLabel("entry", tree.NewValue(fmt.Sprint(i))))
		}
		var order []string
		payload := append([]byte(`<ax:snapshot>`+mustSnapshotDoc(t, "zz-big", big)),
			bytes.TrimPrefix(payload, []byte(`<ax:snapshot>`))...)
		docs, err := UnmarshalSnapshot(payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			order = append(order, d.Name)
		}
		if order[0] != "zz-big" || order[1] != "inbox000" || order[len(order)-1] != "inbox063" || len(order) != 65 {
			t.Errorf("GOMAXPROCS %d: documents decoded as %s", width, strings.Join(order, " "))
		}
	}
}

// mustSnapshotDoc is one document's ax:doc element.
func mustSnapshotDoc(t *testing.T, name string, root *tree.Node) string {
	t.Helper()
	data, err := MarshalDocRecord(name, root)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// A document added to a live durable peer survives a restart: AddDocument
// reaches the mutation hook, which journals the new document's state, and
// recovery adds a document its seed lacks, from a snapshot entry or from
// that state record.
func TestRecoverAddDocumentAtRuntime(t *testing.T) {
	for _, every := range []int{2, -1} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) { recoverAddDocument(t, every) })
	}
}

func recoverAddDocument(t *testing.T, every int) {
	dir := t.TempDir()
	d := Durability{Dir: dir, SnapshotEvery: every}
	const seed = `doc a = inbox`
	p, _, err := Open("late", core.MustParseSystem(seed), WithDurability(d))
	if err != nil {
		t.Fatal(err)
	}
	p.System(func(s *core.System) {
		if err = s.AddDocument(tree.NewDocument("late", tree.NewLabel("late"))); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 3; i++ {
		p.System(func(s *core.System) {
			_, err = s.Append("late", s.Document("late").Root, tree.Forest{tree.NewLabel("entry", tree.NewValue(fmt.Sprint(i)))})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := p.Hash()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for reopen := 0; reopen < 2; reopen++ {
		q, info, err := Open("late", core.MustParseSystem(seed), WithDurability(d))
		if err != nil {
			t.Fatalf("SnapshotEvery %d, reopen %d: %v", every, reopen, err)
		}
		if got := q.Hash(); got != want || !info.Recovered {
			t.Fatalf("SnapshotEvery %d, reopen %d: recovered %s (%+v), want %s", every, reopen, got, info, want)
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
