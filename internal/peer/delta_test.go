package peer

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
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

// goldenPatch is the delta testdata/delta_patch.xml holds: a spine into
// a grown sec plus a brand-new sibling.
const goldenPatch = "testdata/delta_patch.xml"

// TestDeltaWireGolden pins the delta wire bytes — the hex rendering of
// from, to and every spine base included — against a recorded record,
// and applies the recorded patch, so a receiver resolves spine bases the
// way the sender renders them.
func TestDeltaWireGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPatch)
	if err != nil {
		t.Fatal(err)
	}
	anchor := reduced(t, `log{sec{x{"1"}},other{q}}`)
	cur := reduced(t, `log{sec{x{"1"},y{"2 < 3 & z"}},other{q},new{!Get{a}}}`)
	d := Delta{Doc: "log", Mode: DeltaPatch, From: digestHex(anchor), To: digestHex(cur), Patch: PruneSince(cur, anchor)}
	got, err := MarshalDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("delta wire bytes changed:\ngot  %s\nwant %s", got, want)
	}
	back, err := UnmarshalDelta(want)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyPatch(anchor, back.Patch); err != nil {
		t.Fatalf("recorded patch does not apply: %v", err)
	}
	if digestHex(anchor) != back.To {
		t.Fatalf("applied recorded patch reaches %s, want %s", digestHex(anchor), back.To)
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	anchor := reduced(t, `log{sec{x{"1"}},other{q}}`)
	cur := subsume.Union(anchor, reduced(t, `log{sec{y{"2 < 3 & z"}},new{!Get{a}}}`))
	patch := PruneSince(cur, anchor)
	cases := []Delta{
		{Doc: "log", Mode: DeltaSame, To: digestHex(cur)},
		{Doc: "log", Mode: DeltaFull, To: digestHex(cur), Full: cur},
		{Doc: "log", Mode: DeltaPatch, From: digestHex(anchor), To: digestHex(cur), Patch: patch},
	}
	for _, d := range cases {
		data, err := MarshalDelta(d)
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
		switch d.Mode {
		case DeltaFull:
			if !tree.Isomorphic(back.Full, d.Full) {
				t.Fatalf("full round trip: %s", data)
			}
		case DeltaPatch:
			// The patch round-trips if applying both to the anchor agrees.
			a1, a2 := anchor.Copy(), anchor.Copy()
			if _, err := ApplyPatch(a1, d.Patch); err != nil {
				t.Fatal(err)
			}
			if _, err := ApplyPatch(a2, back.Patch); err != nil {
				t.Fatalf("decoded patch: %v", err)
			}
			if a1.CanonicalHash() != a2.CanonicalHash() {
				t.Fatalf("patch round trip diverged: %s", data)
			}
		}
	}
}

func TestDeltaCodecErrors(t *testing.T) {
	bad := [][]byte{
		[]byte(``),
		[]byte(`<wrong/>`),
		[]byte(`<ax:delta mode="full" to="x"></ax:delta>`),           // no name
		[]byte(`<ax:delta name="d" mode="weird" to="x"></ax:delta>`), // bad mode
		[]byte(`<ax:delta name="d" mode="full" to="x"></ax:delta>`),  // full without tree
		[]byte(`<ax:delta name="d" mode="delta" to="x"></ax:delta>`), // patch missing
		// label patch without a name
		[]byte(`<ax:delta name="d" mode="delta" to="x"><ax:patch kind="label" base="b"></ax:patch></ax:delta>`),
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

	// Document grew: delta, carrying only the growth.
	growDoc(remote, "log", `sec{y}`)
	d, err = NewClient(srv.URL, nil).Delta(ctx, "log", anchor)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != DeltaPatch || d.Patch == nil {
		t.Fatalf("anchored fetch after growth: %+v", d)
	}
	if d.From != anchor {
		t.Fatalf("patch anchored at %q, asked %q", d.From, anchor)
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
	remote, _, err := Open("store", sys, WithDeltaAnchors(1))
	if err != nil {
		t.Fatal(err)
	}
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

// TestMirrorDeltaFallback: a replica that diverged below a patched spine
// (here: local-only growth inside the same subtree the remote grew)
// must detect the base mismatch and repair via full pull — converging
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
	// next patch is a spine targeting the old sec{x} digest, which the
	// local replica (now holding sec{x,mine}) no longer has.
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
// the growth shape that produces spine patches (unlike growDoc's
// root-level append, which produces adds).
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
			remote, _, err := Open("store", core.MustParseSystem(`doc log = log`),
				WithDeltaAnchors(2)) // tight cache: force occasional full fallbacks
			if err != nil {
				t.Fatal(err)
			}
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
						// Half the growth lands at the root (patch adds), half
						// in place under an existing child (patch spines).
						target := root
						if len(root.Children) > 0 && rng.Intn(2) == 0 {
							if c := root.Children[rng.Intn(len(root.Children))]; c.Kind != tree.Value {
								target = c
							}
						}
						target.Children = append(target.Children, randomTree(rng, 3))
						tree.InvalidateDigestAll(root)
						subsume.ReduceInPlace(root)
						s.Touch("log")
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
					// the delta path must preserve through patches and
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
// delta and re-applying its patch is harmless (at-least-once delivery).
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
	if d1.Mode != DeltaPatch || d2.Mode != DeltaPatch {
		t.Fatalf("modes %q/%q", d1.Mode, d2.Mode)
	}
	local := d0.Full.Copy()
	if _, err := ApplyPatch(local, d1.Patch); err != nil {
		t.Fatal(err)
	}
	if changed, err := ApplyPatch(local, d2.Patch); err != nil || changed {
		t.Fatalf("duplicate apply: changed=%v err=%v", changed, err)
	}
	if canonicalHex(local) != d1.To {
		t.Fatalf("digest %s after patches, want %s", canonicalHex(local), d1.To)
	}
}
