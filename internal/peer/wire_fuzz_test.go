package peer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/journal"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// Recovery reads snapshots through UnmarshalSnapshot, whole-document
// records through UnmarshalDocRecord and graft records through the graft
// record decoder, and peers exchange trees, envelopes and deltas, so
// these parsers must never panic on arbitrary bytes, and what the
// encoders emit must parse back to an isomorphic value — otherwise a
// peer could persist (or send) bytes it cannot read back. Each decoder
// also agrees with the encoding/xml oracle (agreeWithOracle): the same
// value where both accept, and a rejection the oracle does not make only
// in a documented class.

// fuzzMaxInput bounds per-exec cost: larger inputs only repeat structure
// the coverage-guided corpus already has.
const fuzzMaxInput = 1 << 16

// isoHash is tree.Isomorphic via Merkle hashes: O(n) where canonical
// strings are O(n²) on the deep chains fuzzing gravitates to.
func isoHash(a, b *tree.Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.CanonicalHash() == b.CanonicalHash()
}

func FuzzUnmarshalTree(f *testing.F) {
	seeds := []string{
		``,
		`<a/>`,
		`<a><b>x</b></a>`,
		`<ax:value>4</ax:value>`,
		`<ax:call service="GetRating"><title>Naima</title></ax:call>`,
		`<directory><cd><title>L'amour</title><ax:call service="FreeMusicDB"><ax:value>Jazz</ax:value></ax:call></cd></directory>`,
		`<a>stray text</a>`,
		`<ax:call>missing service</ax:call>`,
		`<a><unclosed></a>`,
		`<a attr="dropped"/>`,
		"<a>x\r\ny</a>",
		`<ax:doc name="notes"><log/></ax:doc>`,
		"<?xml version=\"1.0\"?>\n<a>\n <!-- c --> <b x='1'/>\n</a>",
		`<ax:value>&lt;&#65;&#x1F600;<![CDATA[<&]]></ax:value>`,
		`<a/><b/>`,
		`<foo:bar/>`,
		`<!DOCTYPE a><a/>`,
		`<ax:forest><a/><ax:value>x</ax:value></ax:forest>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
		agreeWithOracle(t, data, "", UnmarshalTree, xmlUnmarshalTree, isoHash)
		agreeWithOracle(t, data, elemForest, UnmarshalForest, xmlUnmarshalForest, sameForest)
		n, err := UnmarshalTree(data)
		if err != nil {
			return // malformed input rejected: fine, as long as no panic
		}
		out, err := MarshalTree(n)
		if err != nil {
			t.Fatalf("parsed tree does not re-marshal: %v (input %q)", err, data)
		}
		back, err := UnmarshalTree(out)
		if err != nil {
			t.Fatalf("marshaled bytes do not re-parse: %v (wire %q)", err, out)
		}
		if !isoHash(n, back) {
			t.Fatalf("round trip not a fixpoint:\nfirst  %s\nsecond %s\nwire %q", n, back, out)
		}
	})
}

// FuzzUnmarshalDelta: replicas feed whatever a remote peer sends
// straight into UnmarshalDelta and then mutate local state from it, so
// the parser must reject garbage without panicking, and every accepted
// record must re-marshal to a stable wire form (one decode/encode round
// canonicalizes and the second must be a fixpoint). A log answer's
// decoded records must re-encode through marshalGraftRecord to exactly
// the bytes of their frames in that stable form. The patch-mode seeds
// (mode="delta", ax:patch, the recorded patch delta) are inputs the
// parser must refuse.
func FuzzUnmarshalDelta(f *testing.F) {
	seeds := []string{
		``,
		`<ax:delta name="d" mode="same" to="00112233aabbccdd"></ax:delta>`,
		`<ax:delta name="d" mode="full" to="00112233aabbccdd"><d><x>1</x></d></ax:delta>`,
		`<ax:delta name="d" mode="delta" from="deadbeefdeadbeef" to="00112233aabbccdd">` +
			`<ax:patch kind="label" name="d" base=""><ax:patch kind="label" name="sec" base="0102030405060708"><y/></ax:patch><z/></ax:patch></ax:delta>`,
		`<ax:delta name="d" mode="delta" to="x"><ax:patch kind="func" name="f" base="b"/></ax:delta>`,
		`<ax:delta name="d" mode="nonsense" to="x"></ax:delta>`,
		`<ax:delta mode="full"><unclosed></ax:delta>`,
		`<ax:patch kind="label" name="orphan" base=""/>`,
		`<ax:delta name="d" mode="full" to="x"><a/><b/></ax:delta>`,
		`<ax:delta name="d" mode="delta" to="x"><ax:patch kind="label" name="p:q" base=""/></ax:delta>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	for _, path := range []string{goldenPatch, goldenLog} {
		golden, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	rec, err := marshalGraftRecord("d", []core.GraftStep{{Kind: tree.Label, Name: "sec"}}, tree.Forest{tree.NewLabel("x")})
	if err != nil {
		f.Fatal(err)
	}
	head := `<ax:delta name="d" mode="log" from="deadbeefdeadbeef" to="00112233aabbccdd"></ax:delta>`
	for _, s := range []string{
		head + string(appendFrame(nil, rec)),
		`<ax:delta name="d" mode="log" to="00112233aabbccdd"></ax:delta>` + string(appendFrame(nil, rec)), // no from
		head, // no records
		head + string(appendFrame(nil, rec)[:10]),                                                        // frame past the body
		`<ax:delta name="e" mode="log" from="deadbeefdeadbeef" to="x"/>` + string(appendFrame(nil, rec)), // another document
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
		agreeWithOracle(t, data, elemDelta, UnmarshalDelta, xmlUnmarshalDelta, sameDelta)
		d, err := UnmarshalDelta(data)
		if err != nil {
			return // malformed input rejected: fine, as long as no panic
		}
		if d.Mode != DeltaSame && d.Mode != DeltaFull && d.Mode != DeltaLog {
			t.Fatalf("accepted a delta in mode %q (input %q)", d.Mode, data)
		}
		out, err := encodeDelta(d)
		if err != nil {
			t.Fatalf("parsed delta does not re-marshal: %v (input %q)", err, data)
		}
		back, err := UnmarshalDelta(out)
		if err != nil {
			t.Fatalf("marshaled delta does not re-parse: %v (wire %q)", err, out)
		}
		again, err := encodeDelta(back)
		if err != nil {
			t.Fatalf("re-parsed delta does not re-marshal: %v (wire %q)", err, out)
		}
		if string(out) != string(again) {
			t.Fatalf("delta wire form not a fixpoint:\nfirst  %q\nsecond %q", out, again)
		}
		frames := out[bytes.Index(out, []byte("</"+elemDelta+">"))+len(elemDelta)+3:]
		for _, r := range back.Log {
			n, k := binary.Uvarint(frames)
			rec, err := marshalGraftRecord(r.Doc, r.Path, r.Fresh)
			if err != nil || string(rec) != string(frames[k:k+int(n)]) {
				t.Fatalf("decoded record does not re-encode to its frame: %v\n%q\n%q", err, rec, frames[k:k+int(n)])
			}
			frames = frames[k+int(n):]
		}
	})
}

func FuzzUnmarshalEnvelope(f *testing.F) {
	seeds := []string{
		``,
		`<ax:envelope><ax:invoke service="f"><ax:input/><ax:context/></ax:invoke></ax:envelope>`,
		`<ax:envelope><ax:invoke service="GetRating"><ax:input><input><title>Naima</title></input></ax:input><ax:context><cd><title>Naima</title></cd></ax:context></ax:invoke></ax:envelope>`,
		`<ax:envelope></ax:envelope>`,
		`<ax:envelope><ax:invoke><ax:input/></ax:invoke></ax:envelope>`,
		`<ax:invoke service="f"/>`,
		`<ax:envelope><ax:invoke service="f"><ax:input><a/></ax:input><ax:input><b/></ax:input></ax:invoke></ax:envelope>`,
		`<ax:envelope><ax:invoke service="f"><ax:context/><x/></ax:invoke></ax:envelope>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
		agreeWithOracle(t, data, elemEnvelope, UnmarshalEnvelope, xmlUnmarshalEnvelope, sameEnvelope)
		env, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		out, err := MarshalEnvelope(env)
		if err != nil {
			t.Fatalf("parsed envelope does not re-marshal: %v (input %q)", err, data)
		}
		back, err := UnmarshalEnvelope(out)
		if err != nil {
			t.Fatalf("marshaled envelope does not re-parse: %v (wire %q)", err, out)
		}
		if back.Service != env.Service ||
			!isoHash(back.Input, env.Input) ||
			!isoHash(back.Context, env.Context) {
			t.Fatalf("envelope round trip not a fixpoint:\nfirst  %+v\nsecond %+v\nwire %q", env, back, out)
		}
	})
}

// FuzzUnmarshalSnapshot: Open decodes the snapshot file's payload and
// every whole-document journal record from disk, so both decoders must
// reject garbage without panicking, agree with the oracle, and read back
// what they accept after re-encoding.
func FuzzUnmarshalSnapshot(f *testing.F) {
	for _, s := range []string{
		``,
		`<ax:snapshot/>`,
		`<ax:snapshot><ax:doc name="a"><x><ax:value>1</ax:value></x></ax:doc><ax:doc name="b"><ax:call service="f"/></ax:doc></ax:snapshot>`,
		`<ax:snapshot>junk<ax:doc name="a"><x/></ax:doc></ax:snapshot>`,
		`<ax:snapshot><ax:doc name="a"><x/><y/></ax:doc></ax:snapshot>`,
		`<ax:doc name="notes"><log><entry><ax:value>boot</ax:value></entry></log></ax:doc>`,
		`<ax:doc name="notes"></ax:doc>`,
		`<ax:doc><x/></ax:doc>`,
		// Junk between documents, and a document cut mid-span.
		`<ax:snapshot><ax:doc name="a"><x/></ax:doc>junk<ax:doc name="b"><y/></ax:doc></ax:snapshot>`,
		`<ax:snapshot><ax:doc name="a"><x/></ax:doc><ax:doc name="b"><y><z/></y></ax:snapshot>`,
		`<ax:snapshot><ax:doc name="a"><x/></ax:doc><ax:doc name="b"><y><ax:val`,
	} {
		f.Add([]byte(s))
	}
	// Many documents: the decoder fans their spans out.
	var many strings.Builder
	many.WriteString(`<ax:snapshot>`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&many, "<ax:doc name=\"d%d\"><r><e><ax:value>%d</ax:value></e><!-- c --></r></ax:doc>\n", i, i)
	}
	f.Add([]byte(many.String() + `</ax:snapshot>`))
	_, golden, err := journal.ReadSnapshot(filepath.Join("testdata", "recovery", SnapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
		agreeWithOracle(t, data, elemSnapshot, UnmarshalSnapshot, xmlUnmarshalSnapshot, sameDocs)
		agreeWithOracle(t, data, elemDoc, docRecord(UnmarshalDocRecord), docRecord(xmlUnmarshalDocRecord), sameDoc)
		if docs, err := UnmarshalSnapshot(data); err == nil {
			out, err := MarshalSnapshot(docs)
			if err != nil {
				t.Fatalf("parsed snapshot does not re-marshal: %v (input %q)", err, data)
			}
			back, err := UnmarshalSnapshot(out)
			if err != nil || !sameDocs(docs, back) {
				t.Fatalf("snapshot round trip not a fixpoint: %v (wire %q)", err, out)
			}
		}
		if name, root, err := UnmarshalDocRecord(data); err == nil {
			out, err := MarshalDocRecord(name, root)
			if err != nil {
				t.Fatalf("parsed doc record does not re-marshal: %v (input %q)", err, data)
			}
			backName, back, err := UnmarshalDocRecord(out)
			if err != nil || backName != name || !isoHash(root, back) {
				t.Fatalf("doc record round trip not a fixpoint: %v (wire %q)", err, out)
			}
		}
	})
}

// FuzzReplayGraftRecord: recovery decodes graft records from disk and
// replays them into live documents, so arbitrary record bytes must never
// panic; a replay either fails without touching the document or leaves it
// reduced, above its old state and holding every tree the record carried
// under the record's path; and a decoded forest must round-trip.
func FuzzReplayGraftRecord(f *testing.F) {
	seed := core.MustParseSystem(feedSeed)
	root := seed.Document("feed").Root
	topic := root.Children[0]
	var posts *tree.Node
	for _, c := range topic.Children {
		if c.Name == "posts" {
			posts = c
		}
	}
	steps := []core.GraftStep{
		{Kind: topic.Kind, Name: topic.Name, Digest: topic.Digest()},
		{Kind: posts.Kind, Name: posts.Name, Digest: posts.Digest()},
	}
	stale := append([]core.GraftStep(nil), steps...)
	stale[1].Digest[0] ^= 1
	for _, rec := range []struct {
		path  []core.GraftStep
		fresh tree.Forest
	}{
		{nil, tree.Forest{post(1)}},
		{steps, tree.Forest{post(2), post(3)}},
		{stale, tree.Forest{post(4)}},
		{steps[:1], tree.Forest{tree.NewFunc("Annotate", tree.NewLabel("x"))}},
	} {
		data, err := marshalGraftRecord("feed", rec.path, rec.fresh)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{"", "\x04feed\x00", "\x04feed\x01\x07x\x00\x00\x00\x00\x00\x00\x00\x00<ax:forest><a/></ax:forest>",
		"\x05notes\x00<ax:forest><a/></ax:forest>", "\x04feed\x00<ax:forest></ax:forest>"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
		if b := graftForest(data); b != nil {
			agreeWithOracle(t, b, elemForest, UnmarshalForest, xmlUnmarshalForest, sameForest)
		}
		doc, path, forest, decErr := unmarshalGraftRecord(data)
		if decErr == nil {
			out, err := MarshalForest(forest)
			if err != nil {
				t.Fatalf("decoded forest does not re-marshal: %v", err)
			}
			back, err := UnmarshalForest(out)
			if err != nil || len(back) != len(forest) {
				t.Fatalf("marshaled forest does not re-parse: %v (wire %q)", err, out)
			}
			for i := range forest {
				if !isoHash(forest[i], back[i]) {
					t.Fatalf("forest round trip not a fixpoint: %s vs %s", forest[i], back[i])
				}
			}
		}
		sys := core.MustParseSystem(feedSeed)
		live := sys.Document("feed").Root
		before := live.Copy()
		_, err := replayRecord(sys, journal.Record{Type: recGraft, Payload: data})
		if err != nil {
			if live.CanonicalHash() != before.CanonicalHash() {
				t.Fatalf("failed replay (%v) changed the document", err)
			}
			return
		}
		if decErr != nil || doc != "feed" {
			t.Fatalf("replay accepted a record that does not decode (%v) or names %q", decErr, doc)
		}
		if !subsume.Subsumed(before, live) || !subsume.IsReduced(live) {
			t.Fatalf("replay shrank or unreduced the document: %s -> %s", before, live)
		}
		for _, tr := range forest {
			held := tr
			for i := len(path) - 1; i >= 0; i-- {
				held = &tree.Node{Kind: path[i].Kind, Name: path[i].Name, Children: []*tree.Node{held}}
			}
			held = tree.NewLabel(live.Name, held)
			if !subsume.Subsumed(held, live) {
				t.Fatalf("replayed tree %s missing under its path: %s", tr, live)
			}
		}
	})
}

// graftForest returns the forest part of a graft record, what follows
// its document name and path steps, or nil when those do not parse.
func graftForest(data []byte) []byte {
	skip := func(fixed int) bool { // a uvarint-prefixed string, then fixed bytes
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) || k+int(n)+fixed > len(data) {
			return false
		}
		data = data[k+int(n)+fixed:]
		return true
	}
	if !skip(0) {
		return nil
	}
	steps, k := binary.Uvarint(data)
	if k <= 0 {
		return nil
	}
	for data = data[k:]; steps > 0; steps-- {
		if len(data) == 0 {
			return nil
		}
		data = data[1:] // the step's kind
		if !skip(graftDigestLen) {
			return nil
		}
	}
	return data
}
