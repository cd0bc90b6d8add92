package peer

import (
	"os"
	"testing"

	"axml/internal/tree"
)

// The journal replays through UnmarshalTree/UnmarshalDocRecord and peers
// exchange envelopes through UnmarshalEnvelope, so these parsers must
// never panic on arbitrary bytes, and what MarshalTree/MarshalEnvelope
// emit must parse back to an isomorphic value — otherwise a peer could
// persist (or send) bytes it cannot read back.

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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
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
// record must re-marshal to a stable wire form (the encoder orders
// spines before adds, so one decode/encode round canonicalizes and the
// second must be a fixpoint).
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	golden, err := os.ReadFile(goldenPatch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
		d, err := UnmarshalDelta(data)
		if err != nil {
			return // malformed input rejected: fine, as long as no panic
		}
		out, err := MarshalDelta(d)
		if err != nil {
			t.Fatalf("parsed delta does not re-marshal: %v (input %q)", err, data)
		}
		back, err := UnmarshalDelta(out)
		if err != nil {
			t.Fatalf("marshaled delta does not re-parse: %v (wire %q)", err, out)
		}
		again, err := MarshalDelta(back)
		if err != nil {
			t.Fatalf("re-parsed delta does not re-marshal: %v (wire %q)", err, out)
		}
		if string(out) != string(again) {
			t.Fatalf("delta wire form not a fixpoint:\nfirst  %q\nsecond %q", out, again)
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
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
