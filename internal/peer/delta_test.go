package peer

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
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

// goldenPatch is a delta in the retired patch mode, which
// testdata/delta_patch.xml holds: a spine into a grown sec plus a
// brand-new sibling. No peer decodes it.
const goldenPatch = "testdata/delta_patch.xml"

// goldenLog is the 226 body testdata/delta_log.bin holds: two framed
// records after the anchor goldenFrom, one at the root and one below
// sec, reaching goldenTo.
const (
	goldenLog  = "testdata/delta_log.bin"
	goldenFrom = "1d69be66e26ba327"
	goldenTo   = "437d0dbd6c09c193"
)

// encodeFrames renders a log answer's records the way a server answers
// them: each re-encoded and framed (a 226 body).
func encodeFrames(d Delta) ([]byte, error) {
	var frames []byte
	for _, r := range d.Log {
		rec, err := marshalGraftRecord(r.Doc, r.Path, r.Fresh)
		if err != nil {
			return nil, err
		}
		frames = appendFrame(frames, rec)
	}
	return frames, nil
}

// readDoc serves one read of a document: conditional on the state from
// when it is not empty, accepting the graft log when log is set.
func readDoc(h http.Handler, name, from string, log bool) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, PathDoc+name, nil)
	if from != "" {
		r.Header.Set(headerIfNoneMatch, `"`+from+`"`)
	}
	if log {
		r.Header.Set(headerAIM, imLog)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestDeltaWireGolden pins a served log answer's bytes — the frames and
// the records exactly as the journal would write them — and its
// headers, checks the codec reproduces them, and replays the recorded
// records onto the anchor state.
func TestDeltaWireGolden(t *testing.T) {
	want, err := os.ReadFile(goldenLog)
	if err != nil {
		t.Fatal(err)
	}
	origin := mustOpen("origin", core.MustParseSystem(`doc log = log{sec{x{"1"}},other{q}}`))
	w := readDoc(origin.Handler(), "log", "", true)
	root, err := UnmarshalTree(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || w.Header().Get(headerETag) != `"`+goldenFrom+`"` {
		t.Fatalf("anchorless read: %d, ETag %s", w.Code, w.Header().Get(headerETag))
	}
	full := Delta{Doc: "log", Mode: DeltaFull, To: goldenFrom, Full: root}
	growDoc(origin, "log", `new{!Get{a}}`)
	growIn(origin, "log", "sec", `y{"2 < 3 & z"}`)
	w = readDoc(origin.Handler(), "log", goldenFrom, true)
	if w.Code != http.StatusIMUsed || w.Header().Get(headerIM) != imLog || w.Header().Get(headerETag) != `"`+goldenTo+`"` {
		t.Fatalf("log read: %d, IM %q, ETag %s", w.Code, w.Header().Get(headerIM), w.Header().Get(headerETag))
	}
	if got := w.Body.Bytes(); string(got) != string(want) {
		t.Fatalf("log wire bytes changed:\ngot  %q\nwant %q", got, want)
	}
	recs, err := unmarshalFrames(want, "log")
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Doc: "log", Mode: DeltaLog, From: goldenFrom, To: goldenTo, Log: recs}
	if again, err := encodeFrames(d); err != nil || string(again) != string(want) {
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

// TestDeltaCodecErrors: a 200 body must be a tree, so the recorded
// delta in the retired patch mode and an ax:delta envelope of the
// retired delta endpoint are refused; a 226 body must be well-formed
// frames of the document read; and every answer names its state.
func TestDeltaCodecErrors(t *testing.T) {
	patch, err := os.ReadFile(goldenPatch)
	if err != nil {
		t.Fatal(err)
	}
	const old = `<ax:delta name="log" mode="full" to="00112233aabbccdd"><log/></ax:delta>`
	rec := mustGraftRecord(t, "log")
	type answer struct {
		code       int
		etag, body string
	}
	var serve answer
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if serve.etag != "" {
			w.Header().Set(headerETag, serve.etag)
		}
		w.WriteHeader(serve.code)
		w.Write([]byte(serve.body))
	}))
	defer srv.Close()
	const tag = `"00112233aabbccdd"`
	frame := string(appendFrame(nil, rec))
	for what, a := range map[string]answer{
		"the recorded patch delta": {http.StatusOK, tag, string(patch)},
		"an ax:delta envelope":     {http.StatusOK, tag, old},
		"an empty 200":             {http.StatusOK, tag, ""},
		"a 200 without an ETag":    {http.StatusOK, "", "<log/>"},
		"a weak ETag":              {http.StatusOK, `W/` + tag, "<log/>"},
		"a 226 without records":    {http.StatusIMUsed, tag, ""},
		"a frame past the body":    {http.StatusIMUsed, tag, frame[:len(frame)-2]},
		"a length past the body":   {http.StatusIMUsed, tag, "\x7f" + string(rec)},
		"a record of another doc":  {http.StatusIMUsed, tag, frame + string(appendFrame(nil, mustGraftRecord(t, "other")))},
		"an envelope as a 226":     {http.StatusIMUsed, tag, old},
		"a 304 naming another":     {http.StatusNotModified, `"feedfeedfeedfeed"`, ""},
	} {
		serve = a
		if d, err := NewClient(srv.URL, nil).Delta(context.Background(), "log", "deadbeefdeadbeef"); err == nil {
			t.Errorf("%s: accepted as %+v", what, d)
		}
	}
	serve = answer{http.StatusIMUsed, tag, frame}
	if d, err := NewClient(srv.URL, nil).Delta(context.Background(), "log", "deadbeefdeadbeef"); err != nil || d.Mode != DeltaLog || len(d.Log) != 1 {
		t.Fatalf("a well-formed 226: %+v, %v", d, err)
	}
}

// mustGraftRecord encodes a one-tree growth at doc's root.
func mustGraftRecord(t *testing.T, doc string) []byte {
	t.Helper()
	rec, err := marshalGraftRecord(doc, nil, tree.Forest{tree.NewLabel("x")})
	if err != nil {
		t.Fatal(err)
	}
	return rec
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

// TestDeltaEndpointModes drives the one read through its three
// answers — 304, 226 and 200 — and the reads that fall back to 200 or
// fail, each naming the served state in its ETag, then the client's
// mapping of the three onto DeltaSame, DeltaLog and DeltaFull.
func TestDeltaEndpointModes(t *testing.T) {
	remote := mustOpen("store", core.MustParseSystem(`doc log = log{sec{x}}`))
	remote.anchors.max = 2
	h := remote.Handler()
	check := func(what string, w *httptest.ResponseRecorder, code int, im string) {
		t.Helper()
		tag := `"` + remote.localDigest("log") + `"`
		if w.Code != code || w.Header().Get(headerETag) != tag || w.Header().Get(headerIM) != im {
			t.Fatalf("%s: %d, ETag %s, IM %q; want %d, ETag %s, IM %q",
				what, w.Code, w.Header().Get(headerETag), w.Header().Get(headerIM), code, tag, im)
		}
		if code == http.StatusNotModified && w.Body.Len() != 0 {
			t.Fatalf("%s: a 304 with a body: %q", what, w.Body.Bytes())
		}
	}

	check("a plain read", readDoc(h, "log", "", false), http.StatusOK, "")
	anchor := remote.localDigest("log")
	check("a read of the current state", readDoc(h, "log", anchor, false), http.StatusNotModified, "")
	check("a log read of the current state", readDoc(h, "log", anchor, true), http.StatusNotModified, "")

	// The document grew: the log since the anchor, only when accepted.
	growDoc(remote, "log", `sec{y}`)
	check("a conditional read without A-IM", readDoc(h, "log", anchor, false), http.StatusOK, "")
	w := readDoc(h, "log", anchor, true)
	check("a log read after growth", w, http.StatusIMUsed, imLog)
	if recs, err := unmarshalFrames(w.Body.Bytes(), "log"); err != nil || len(recs) != 1 {
		t.Fatalf("the log since the anchor: %d records, %v", len(recs), err)
	}
	check("an unknown anchor", readDoc(h, "log", "feedfeedfeedfeed", true), http.StatusOK, "")
	for _, tag := range []string{anchor, `W/"` + anchor + `"`, `"` + anchor, "*", `"` + anchor + `", "x"`} {
		r := httptest.NewRequest(http.MethodGet, PathDoc+"log", nil)
		r.Header.Set(headerIfNoneMatch, tag)
		r.Header.Set(headerAIM, imLog)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		check("If-None-Match: "+tag, w, http.StatusOK, "")
	}
	// Two more states served rotate the anchor out of a two-slot cache.
	growDoc(remote, "log", `s1`)
	readDoc(h, "log", "", false)
	growDoc(remote, "log", `s2`)
	readDoc(h, "log", "", false)
	check("an evicted anchor", readDoc(h, "log", anchor, true), http.StatusOK, "")
	if w := readDoc(h, "nope", "", true); w.Code != http.StatusNotFound {
		t.Fatalf("a missing document: %d", w.Code)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	c, ctx := NewClient(srv.URL, nil), context.Background()
	full, err := c.Delta(ctx, "log", "")
	if err != nil || full.Mode != DeltaFull || full.Full == nil || full.To != remote.localDigest("log") {
		t.Fatalf("an anchorless read: %+v, %v", full, err)
	}
	if d, err := c.Delta(ctx, "log", full.To); err != nil || d.Mode != DeltaSame || d.To != full.To {
		t.Fatalf("a current read: %+v, %v", d, err)
	}
	growDoc(remote, "log", `sec{z}`)
	d, err := c.Delta(ctx, "log", full.To)
	if err != nil || d.Mode != DeltaLog || len(d.Log) != 1 || d.From != full.To || d.To != remote.localDigest("log") {
		t.Fatalf("an anchored read after growth: %+v, %v", d, err)
	}
	if _, err := c.Delta(ctx, "nope", ""); err == nil {
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
