package peer

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// reduced parses and reduces a document literal.
func reduced(t *testing.T, src string) *tree.Node {
	t.Helper()
	return subsume.ReduceInPlace(syntax.MustParseDocument(src))
}

// TestPruneApplyRoundTrip pins the delta protocol's core invariant:
// applying PruneSince(cur, anchor) to a copy of the anchor reproduces
// cur exactly (byte-identical canonical hash), for anchors that are
// genuinely subsumed by the current state.
func TestPruneApplyRoundTrip(t *testing.T) {
	cases := []struct{ anchor, growth string }{
		// Deep growth below an existing child.
		{`log{sec{x}}`, `log{sec{y}}`},
		// The incomparable-sibling trap: sec{x} and sec{y} must deep-merge
		// into sec{x,y}, not sit side by side.
		{`log{sec{x{"1"}}}`, `log{sec{y{"2"}}}`},
		// Brand-new sibling subtree.
		{`log{a{b}}`, `log{c{d{"v"}}}`},
		// Function nodes on the spine.
		{`log{part{!Get{q}}}`, `log{part{r{"ans"}}}`},
		// Growth at two positions at once.
		{`log{a{x},b{y}}`, `log{a{z},b{w{"2"}}}`},
		// Nothing shared beyond the root.
		{`log`, `log{a{b{c}},d}`},
		// Values and repeated labels.
		{`cat{item{"bop"}}`, `cat{item{"cool-jazz"},item{"bop",note{"re"}}}`},
		// A label, a value and a function named x beside each other.
		{`log{x{a}}`, `log{x{b},"x",!x}`},
	}
	for _, tc := range cases {
		anchor := reduced(t, tc.anchor)
		cur := subsume.Union(anchor, reduced(t, tc.growth))
		if cur == nil {
			t.Fatalf("bad case %q + %q: union failed", tc.anchor, tc.growth)
		}
		p := PruneSince(cur, anchor)
		if p == nil {
			if cur.CanonicalHash() != anchor.CanonicalHash() {
				t.Fatalf("%q + %q: nil patch for differing trees", tc.anchor, tc.growth)
			}
			continue
		}
		local := anchor.Copy()
		changed, err := ApplyPatch(local, p)
		if err != nil {
			t.Fatalf("%q + %q: apply: %v", tc.anchor, tc.growth, err)
		}
		if !changed {
			t.Fatalf("%q + %q: apply reported no change", tc.anchor, tc.growth)
		}
		if local.CanonicalHash() != cur.CanonicalHash() {
			t.Fatalf("%q + %q: apply diverged:\n got %s\nwant %s",
				tc.anchor, tc.growth, local.CanonicalString(), cur.CanonicalString())
		}
		// Idempotence: re-applying the same patch changes nothing (the
		// delivery may be duplicated on a flaky wire).
		changed, err = ApplyPatch(local, p)
		if err == nil && changed {
			t.Fatalf("%q + %q: re-apply changed state", tc.anchor, tc.growth)
		}
	}
}

// TestPruneSinceKeepsKindsApart: a label, a value and a function named x
// are three markings. The grown label x is the one child diffed as a
// spine, the value and the call ship whole, and roots of different kinds
// give no patch.
func TestPruneSinceKeepsKindsApart(t *testing.T) {
	p := PruneSince(reduced(t, `log{x{a,b},"x",!x}`), reduced(t, `log{x{a}}`))
	if p == nil || len(p.Spines) != 1 || p.Spines[0].Kind != tree.Label || len(p.Adds) != 2 {
		t.Fatalf("patch = %+v, want one label spine and two adds", p)
	}
	if p := PruneSince(reduced(t, `x{a}`), reduced(t, `"x"`)); p != nil {
		t.Fatalf("label root paired with value root: %+v", p)
	}
}

// TestApplyPatchMismatch pins the refusal path: a patch whose spine
// targets a subtree the local replica no longer holds must fail without
// mutating anything, so the caller can fall back to a full pull.
func TestApplyPatchMismatch(t *testing.T) {
	// cur is the anchor grown in place below sec — the shape that yields
	// a spine patch (a union of separate sec{...} trees would instead
	// keep incomparable siblings side by side and ship an Add).
	anchor := reduced(t, `log{sec{x}}`)
	cur := reduced(t, `log{sec{x,y}}`)
	p := PruneSince(cur, anchor)
	if p == nil || len(p.Spines) != 1 {
		t.Fatalf("expected one spine patch, got %+v", p)
	}
	// The local replica diverged: its sec subtree grew past the anchor,
	// so the spine's base digest no longer matches.
	local := reduced(t, `log{sec{x,z}}`)
	before := local.CanonicalHash()
	if _, err := ApplyPatch(local, p); err == nil {
		t.Fatal("patch against diverged replica applied")
	}
	if local.CanonicalHash() != before {
		t.Fatal("failed apply mutated the replica")
	}
	// Root marking mismatch is an error too, not a silent no-op.
	if _, err := ApplyPatch(reduced(t, `other`), p); err == nil {
		t.Fatal("patch applied across root markings")
	}
}

// goldenPatch is a delta in the retired patch mode, which
// testdata/delta_patch.xml holds: a spine into a grown sec plus a
// brand-new sibling. No peer decodes it.
const goldenPatch = "testdata/delta_patch.xml"

// goldenLog is the log answer testdata/delta_log.bin holds: two records
// after the anchor, one at the root and one below sec.
const goldenLog = "testdata/delta_log.bin"

// encodeDelta renders a decoded delta the way a server answers it: a log
// answer's records re-encoded and framed, a full answer's tree.
func encodeDelta(d Delta) ([]byte, error) {
	var frames []byte
	for _, r := range d.Log {
		rec, err := marshalGraftRecord(r.Doc, r.Path, r.Fresh)
		if err != nil {
			return nil, err
		}
		frames = appendFrame(frames, rec)
	}
	return marshalDelta(d, frames)
}

// TestDeltaWireGolden pins a served log answer's bytes — the header, the
// frames and the records exactly as the journal would write them —
// checks the codec reproduces them, and replays the recorded records onto
// the anchor state.
func TestDeltaWireGolden(t *testing.T) {
	want, err := os.ReadFile(goldenLog)
	if err != nil {
		t.Fatal(err)
	}
	origin := mustOpen("origin", core.MustParseSystem(`doc log = log{sec{x{"1"}},other{q}}`))
	get := func(from string) []byte {
		w := httptest.NewRecorder()
		origin.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, PathDelta+"log?from="+from, nil))
		return w.Body.Bytes()
	}
	full, err := UnmarshalDelta(get(""))
	if err != nil {
		t.Fatal(err)
	}
	growDoc(origin, "log", `new{!Get{a}}`)
	growIn(origin, "log", "sec", `y{"2 < 3 & z"}`)
	if got := get(full.To); string(got) != string(want) {
		t.Fatalf("log wire bytes changed:\ngot  %q\nwant %q", got, want)
	}
	d, err := UnmarshalDelta(want)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := encodeDelta(d); err != nil || string(again) != string(want) {
		t.Fatalf("codec does not reproduce the served bytes: %v\n%q", err, again)
	}
	replica := mustOpen("replica", core.MustParseSystem(`doc log = log`))
	m := &Mirror{LocalDoc: "log"}
	if _, err := m.merge(replica, full); err != nil {
		t.Fatal(err)
	}
	if _, err := m.merge(replica, d); err != nil {
		t.Fatalf("recorded records do not replay: %v", err)
	}
	if got := docHash(replica, "log"); got != d.To {
		t.Fatalf("replayed records reach %s, want %s", got, d.To)
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	anchor := reduced(t, `log{sec{x{"1"}},other{q}}`)
	cur := subsume.Union(anchor, reduced(t, `log{sec{y{"2 < 3 & z"}},new{!Get{a}}}`))
	cases := []Delta{
		{Doc: "log", Mode: DeltaSame, To: digestHex(cur)},
		{Doc: "log", Mode: DeltaFull, To: digestHex(cur), Full: cur},
	}
	for _, d := range cases {
		data, err := encodeDelta(d)
		if err != nil {
			t.Fatalf("marshal %s: %v", d.Mode, err)
		}
		back, err := UnmarshalDelta(data)
		if err != nil {
			t.Fatalf("unmarshal %s (%s): %v", d.Mode, data, err)
		}
		if back.Doc != d.Doc || back.Mode != d.Mode || back.From != d.From || back.To != d.To {
			t.Fatalf("header round trip: %+v vs %+v", back, d)
		}
		if d.Mode == DeltaFull && !tree.Isomorphic(back.Full, d.Full) {
			t.Fatalf("full round trip: %s", data)
		}
	}
}

// TestDeltaCodecErrors: malformed records are refused, and so is every
// delta in the retired patch mode (mode="delta", ax:patch), the recorded
// one included.
func TestDeltaCodecErrors(t *testing.T) {
	patch, err := os.ReadFile(goldenPatch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalDelta(patch); err == nil || !strings.Contains(err.Error(), `unknown delta mode "delta"`) {
		t.Fatalf("the recorded patch delta: %v, want an unknown mode", err)
	}
	bad := [][]byte{
		[]byte(``),
		[]byte(`<wrong/>`),
		[]byte(`<ax:delta mode="full" to="x"></ax:delta>`),           // no name
		[]byte(`<ax:delta name="d" mode="weird" to="x"></ax:delta>`), // bad mode
		[]byte(`<ax:delta name="d" mode="full" to="x"></ax:delta>`),  // full without tree
		[]byte(`<ax:delta name="d" mode="delta" to="x"></ax:delta>`), // patch mode
		[]byte(`<ax:delta name="d" mode="delta" from="y" to="x"><ax:patch kind="label" name="d" base="y"></ax:patch></ax:delta>`),
	}
	for _, data := range bad {
		if _, err := UnmarshalDelta(data); err == nil {
			t.Errorf("accepted %s", data)
		}
	}
}

// growDoc appends a parsed subtree under the named document's root the
// way growth from outside a run reaches a peer's document: System.Append.
func growDoc(p *Peer, doc, src string) {
	add := syntax.MustParseDocument(src)
	p.System(func(s *core.System) {
		if _, err := s.Append(doc, s.Document(doc).Root, tree.Forest{add}); err != nil {
			panic(err)
		}
	})
}

func docHash(p *Peer, doc string) string {
	var h string
	p.System(func(s *core.System) { h = canonicalHex(s.Document(doc).Root) })
	return h
}

// TestDeltaEndpointModes drives PathDelta through its three answers.
func TestDeltaEndpointModes(t *testing.T) {
	remote := mustOpen("store", core.MustParseSystem(`doc log = log{sec{x}}`))
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()
	ctx := context.Background()

	// No anchor: full.
	d, err := NewClient(srv.URL, nil).Delta(ctx, "log", "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != DeltaFull || d.Full == nil {
		t.Fatalf("anchorless fetch: %+v", d)
	}
	anchor := d.To

	// Same anchor, unchanged document: same.
	d, err = NewClient(srv.URL, nil).Delta(ctx, "log", anchor)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != DeltaSame {
		t.Fatalf("current fetch answered %q", d.Mode)
	}

	// Document grew: log, carrying only the growth.
	growDoc(remote, "log", `sec{y}`)
	d, err = NewClient(srv.URL, nil).Delta(ctx, "log", anchor)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != DeltaLog || len(d.Log) != 1 {
		t.Fatalf("anchored fetch after growth: %+v", d)
	}
	if d.From != anchor {
		t.Fatalf("log anchored at %q, asked %q", d.From, anchor)
	}

	// Unknown anchor: full fallback.
	d, err = NewClient(srv.URL, nil).Delta(ctx, "log", "feedfeedfeedfeed")
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != DeltaFull {
		t.Fatalf("unknown anchor answered %q", d.Mode)
	}

	// Unknown document: 404.
	if _, err := NewClient(srv.URL, nil).Delta(ctx, "nope", ""); err == nil {
		t.Fatal("missing document served")
	}
}

// TestDeltaAnchorEviction: a bounded anchor cache rotates old states
// out; a receiver with an evicted anchor degrades to a full answer,
// never an error.
func TestDeltaAnchorEviction(t *testing.T) {
	sys := core.MustParseSystem(`doc log = log{s0}`)
	remote := mustOpen("store", sys)
	remote.anchors.max = 1
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()
	ctx := context.Background()

	d, err := NewClient(srv.URL, nil).Delta(ctx, "log", "")
	if err != nil {
		t.Fatal(err)
	}
	oldAnchor := d.To
	// Two growth steps, each observed at the server, rotate the single
	// cache slot past oldAnchor.
	growDoc(remote, "log", `s1`)
	if _, err := NewClient(srv.URL, nil).Delta(ctx, "log", ""); err != nil {
		t.Fatal(err)
	}
	growDoc(remote, "log", `s2`)
	d, err = NewClient(srv.URL, nil).Delta(ctx, "log", oldAnchor)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != DeltaFull {
		t.Fatalf("evicted anchor answered %q", d.Mode)
	}
}

// TestMirrorDeltaFallback: a replica that diverged on a record's path
// (here: local-only growth inside the same subtree the remote grew)
// must detect the mismatch and repair via full pull — converging
// to Union(local, remote) either way.
func TestMirrorDeltaFallback(t *testing.T) {
	remote := mustOpen("store", core.MustParseSystem(`doc log = log{sec{x}}`))
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()

	reg := obs.NewRegistry()
	localSys := core.MustParseSystem(`doc replica = log`)
	local, _, err := Open("cache", localSys, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "replica"}
	ctx := context.Background()
	if _, err := m.Sync(ctx, local); err != nil {
		t.Fatal(err)
	}

	// Both sides grow in place inside their sec subtree: the remote's
	// next record's path names the old sec{x} digest, which the local
	// replica (now holding sec{x,mine}) no longer has.
	growIn(local, "replica", "sec", `mine`)
	growIn(remote, "log", "sec", `theirs`)
	changed, err := m.Sync(ctx, local)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("sync brought nothing")
	}
	if got := reg.Counter("peer.mirror.delta_fallbacks").Value(); got == 0 {
		t.Fatal("expected a delta fallback")
	}
	want := subsume.Union(reduced(t, `log{sec{x,mine}}`), reduced(t, `log{sec{x,theirs}}`))
	local.System(func(s *core.System) {
		if got := s.Document("replica").Root; !tree.Isomorphic(got, want) {
			t.Fatalf("replica %s, want %s", got.CanonicalString(), want.CanonicalString())
		}
	})
}

// growIn appends a parsed subtree in place under the named root child —
// the growth shape whose records carry a one-step path (unlike growDoc's
// root-level append).
func growIn(p *Peer, doc, child, src string) {
	add := syntax.MustParseDocument(src)
	p.System(func(s *core.System) {
		for _, c := range s.Document(doc).Root.Children {
			if c.Kind == tree.Label && c.Name == child {
				if _, err := s.Append(doc, c, tree.Forest{add}); err != nil {
					panic(err)
				}
				break
			}
		}
	})
}

// randomTree builds a small random subtree over a fixed alphabet.
func randomTree(rng *rand.Rand, depth int) *tree.Node {
	labels := []string{"a", "b", "c", "sec", "item"}
	if depth <= 0 || rng.Intn(4) == 0 {
		return tree.NewValue(fmt.Sprintf("v%d", rng.Intn(6)))
	}
	n := tree.NewLabel(labels[rng.Intn(len(labels))])
	for i := rng.Intn(3); i > 0; i-- {
		n.Children = append(n.Children, randomTree(rng, depth-1))
	}
	return n
}

// TestDeltaStreamMatchesFullPull is the differential property test: a
// replica maintained through the delta stream and one maintained by
// full re-pulls must reach byte-identical document digests, whatever
// the interleaving of remote growth, skipped syncs, anchor resets and
// shared local edits.
func TestDeltaStreamMatchesFullPull(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			remote := mustOpen("store", core.MustParseSystem(`doc log = log`))
			remote.anchors.max = 2 // tight cache: force occasional full fallbacks
			srv := httptest.NewServer(remote.Handler())
			defer srv.Close()

			reg := obs.NewRegistry()
			viaDelta, _, err := Open("delta", core.MustParseSystem(`doc log = log`),
				WithObservability(reg))
			if err != nil {
				t.Fatal(err)
			}
			viaFull := mustOpen("full", core.MustParseSystem(`doc log = log`))
			m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
			ctx := context.Background()

			// fullPull re-pulls the whole document and merges by Union —
			// the pre-delta semantics the delta stream must match.
			fullPull := func() {
				n, err := NewClient(srv.URL, nil).Doc(ctx, "log")
				if err != nil {
					t.Fatal(err)
				}
				viaFull.System(func(s *core.System) {
					root := s.Document("log").Root
					merged := subsume.Union(root, n)
					root.Children = merged.Children
					s.Touch("log")
				})
			}

			for round := 0; round < 30; round++ {
				for i := rng.Intn(3); i >= 0; i-- {
					remote.System(func(s *core.System) {
						root := s.Document("log").Root
						// Half the growth lands at the root (records with an
						// empty path), half in place under an existing child
						// (records one step down).
						target := root
						if len(root.Children) > 0 && rng.Intn(2) == 0 {
							if c := root.Children[rng.Intn(len(root.Children))]; c.Kind != tree.Value {
								target = c
							}
						}
						if _, err := s.Append("log", target, tree.Forest{randomTree(rng, 3)}); err != nil {
							panic(err)
						}
					})
				}
				switch rng.Intn(4) {
				case 0: // skip this round: the mirror falls behind
				case 1: // anchor reset: simulates a restarted mirror
					m = &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
					fallthrough
				default:
					if _, err := m.Sync(ctx, viaDelta); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(3) == 0 {
					// A shared out-of-band edit on both replicas: local data
					// the delta path must preserve through replays and
					// fallbacks alike.
					edit := randomTree(rng, 2).CanonicalString()
					growDoc(viaDelta, "log", edit)
					growDoc(viaFull, "log", edit)
				}
			}
			if _, err := m.Sync(ctx, viaDelta); err != nil {
				t.Fatal(err)
			}
			fullPull()
			if got, want := docHash(viaDelta, "log"), docHash(viaFull, "log"); got != want {
				t.Fatalf("delta stream diverged from full pull: %s vs %s", got, want)
			}
			if reg.Counter("peer.mirror.deltas").Value() == 0 {
				t.Fatal("delta path never exercised")
			}
		})
	}
}

// TestRemoteDeltaEndpointToleratesDuplicates: re-requesting the same
// delta and replaying its records again is harmless (at-least-once
// delivery).
func TestRemoteDeltaEndpointToleratesDuplicates(t *testing.T) {
	remote := mustOpen("store", core.MustParseSystem(`doc log = log{sec{x}}`))
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()
	ctx := context.Background()

	d0, err := NewClient(srv.URL, nil).Delta(ctx, "log", "")
	if err != nil {
		t.Fatal(err)
	}
	growDoc(remote, "log", `sec{y}`)
	d1, err := NewClient(srv.URL, nil).Delta(ctx, "log", d0.To)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewClient(srv.URL, nil).Delta(ctx, "log", d0.To) // duplicated request
	if err != nil {
		t.Fatal(err)
	}
	if d1.Mode != DeltaLog || d2.Mode != DeltaLog {
		t.Fatalf("modes %q/%q", d1.Mode, d2.Mode)
	}
	local := mustOpen("replica", core.MustParseSystem(`doc log = log`))
	m := &Mirror{LocalDoc: "log"}
	if _, err := m.merge(local, d0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.merge(local, d1); err != nil {
		t.Fatal(err)
	}
	if changed, err := m.merge(local, d2); err != nil || changed {
		t.Fatalf("duplicate apply: changed=%v err=%v", changed, err)
	}
	if got := docHash(local, "log"); got != d1.To {
		t.Fatalf("digest %s after replays, want %s", got, d1.To)
	}
}
