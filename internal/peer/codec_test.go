package peer

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/journal"
	"axml/internal/tree"
	"axml/internal/workload"
)

// agreeWithOracle reads one input with the codec and with the oracle
// (wire_oracle_test.go): when both accept, the values must be the same;
// when only the oracle accepts, the input must fall in a documented
// rejection class (rejectionClass). An input only the codec accepts is
// the codec's to read back: the round-trip properties cover it.
func agreeWithOracle[T any](t *testing.T, data []byte, root string, ours, oracle func([]byte) (T, error), same func(a, b T) bool) {
	t.Helper()
	got, err := ours(data)
	want, oerr := oracle(data)
	switch {
	case oerr != nil:
	case err == nil:
		if !same(got, want) {
			t.Fatalf("codec and oracle read %q differently:\ncodec  %v\noracle %v", data, got, want)
		}
	case rejectionClass(data, root) == "":
		t.Fatalf("codec rejects %q (%v), which the oracle reads and no rejection class covers", data, err)
	}
}

func sameForest(a, b tree.Forest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !isoHash(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameDocs(a, b []*tree.Document) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !isoHash(a[i].Root, b[i].Root) {
			return false
		}
	}
	return true
}

func sameEnvelope(a, b Envelope) bool {
	return a.Service == b.Service && isoHash(a.Input, b.Input) && isoHash(a.Context, b.Context)
}

func sameEnvelopes(a, b []Envelope) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameEnvelope(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameAnswers(a, b []Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i].Err == nil) != (b[i].Err == nil) || a[i].Err != nil && a[i].Err.Error() != b[i].Err.Error() ||
			!sameForest(a[i].Forest, b[i].Forest) {
			return false
		}
	}
	return true
}

// marshalBatch renders envelopes as an ax:batch request, as the client
// writes one (batchBody over MarshalEnvelope's bytes).
func marshalBatch(envs []Envelope) ([]byte, error) {
	bodies := make([][]byte, len(envs))
	for i, env := range envs {
		var err error
		if bodies[i], err = MarshalEnvelope(env); err != nil {
			return nil, err
		}
	}
	return batchBody(bodies), nil
}

// unmarshalBatch reads an ax:batch request as /axml/invoke reads one: its
// envelope spans (childSpans), each decoded as a lone envelope.
func unmarshalBatch(data []byte) ([]Envelope, error) {
	spans, err := childSpans(data, elemBatch, elemEnvelope)
	if err != nil {
		return nil, err
	}
	envs := make([]Envelope, len(spans))
	for i, sp := range spans {
		if envs[i], err = UnmarshalEnvelope(data[sp.lo:sp.hi]); err != nil {
			return nil, err
		}
	}
	return envs, nil
}

// marshalAnswers renders answers as the server writes them: an ax:forest
// per answer, an ax:error per failure.
func marshalAnswers(answers []Answer) ([]byte, error) {
	var e encoder
	e.open(elemAnswers)
	for _, a := range answers {
		if a.Err != nil {
			e.fail(a.Err)
		} else {
			e.forest(a.Forest)
		}
	}
	e.close(elemAnswers)
	return e.bytes()
}

// docRecord adapts a doc-record decoder to one value.
func docRecord(dec func([]byte) (string, *tree.Node, error)) func([]byte) (*tree.Document, error) {
	return func(data []byte) (*tree.Document, error) {
		name, root, err := dec(data)
		return tree.NewDocument(name, root), err
	}
}

func sameDoc(a, b *tree.Document) bool { return sameDocs([]*tree.Document{a}, []*tree.Document{b}) }

// Strings the encoder must escape exactly as encoding/xml did.
var wireTexts = []string{
	"", "plain", "2 < 3 & z", `"q" 'a'`, "tab\tnl\ncr\r", "\r\n", "]]>", "a>b",
	"é ✓ \U0001F600", "�", " ", "&amp;", "\u0085 ", "x\x7fy",
}

var wireLabels = []string{"a", "b", "é", "ǅx", "_u", "a-b.c", "日本", "x1"}

// randomWireTree builds a tree over wireLabels and wireTexts, which the
// product encoder and the oracle must render to the same bytes.
func randomWireTree(rng *rand.Rand, depth int) *tree.Node {
	var n *tree.Node
	switch k := rng.Intn(6); {
	case depth == 0 || k == 0:
		return tree.NewValue(wireTexts[rng.Intn(len(wireTexts))])
	case k == 1:
		n = tree.NewFunc(wireTexts[1+rng.Intn(len(wireTexts)-1)])
	default:
		n = tree.NewLabel(wireLabels[rng.Intn(len(wireLabels))])
	}
	for i := rng.Intn(4); i > 0; i-- {
		n.Children = append(n.Children, randomWireTree(rng, depth-1))
	}
	return n
}

// The encoder's bytes are the oracle's, for every record kind, over
// random trees with every escape and over the workload generators'
// documents (random simple systems, jazz portals, random trees).
func TestCodecBytesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var trees []*tree.Node
	for i := 0; i < 300; i++ {
		trees = append(trees, tree.NewLabel("root", randomWireTree(rng, 4)))
	}
	for i := 0; i < 20; i++ {
		trees = append(trees, workload.RandomTree(rng, workload.TreeConfig{Nodes: 60, Funcs: []string{"f", "g"}, FuncDensity: 0.3}))
		for _, sys := range []*core.System{
			workload.RandomSimpleSystem(rng, workload.SystemConfig{}),
			workload.JazzSystem(rng, workload.JazzConfig{}),
		} {
			for _, name := range sys.DocNames() {
				trees = append(trees, sys.Document(name).Root)
			}
		}
	}
	same := func(what string, got []byte, err error, want []byte, oerr error) {
		t.Helper()
		if err != nil || oerr != nil || string(got) != string(want) {
			t.Fatalf("%s: codec %q (%v), oracle %q (%v)", what, got, err, want, oerr)
		}
	}
	var docs []*tree.Document
	var envs []Envelope
	var answers []Answer
	for i, n := range trees {
		got, err := MarshalTree(n)
		want, oerr := xmlMarshalTree(n)
		same("tree", got, err, want, oerr)
		got, err = MarshalDocRecord(wireTexts[i%len(wireTexts)]+"d", n)
		want, oerr = xmlMarshalDocRecord(wireTexts[i%len(wireTexts)]+"d", n)
		same("doc record", got, err, want, oerr)
		docs = append(docs, tree.NewDocument("d"+strconv.Itoa(i), n))

		env := Envelope{Service: wireTexts[1+i%(len(wireTexts)-1)], Input: n}
		if i%3 == 0 {
			env.Context = trees[(i+1)%len(trees)]
		}
		got, err = MarshalEnvelope(env)
		want, oerr = xmlMarshalEnvelope(env)
		same("envelope", got, err, want, oerr)
		envs = append(envs, env)

		f := tree.Forest(trees[i : i+min(3, len(trees)-i)])
		got, err = MarshalForest(f)
		want, oerr = xmlMarshalForest(f)
		same("forest", got, err, want, oerr)
		answers = append(answers, Answer{Forest: f})
		if i%4 == 0 {
			// An error text may hold what XML cannot carry: both write U+FFFD.
			answers = append(answers, Answer{Err: errors.New(wireTexts[i%len(wireTexts)] + "\x01\xff")})
		}
	}
	got, err := MarshalSnapshot(docs)
	want, oerr := xmlMarshalSnapshot(docs)
	same("snapshot", got, err, want, oerr)
	got, err = marshalBatch(envs)
	want, oerr = xmlMarshalBatch(envs)
	same("batch", got, err, want, oerr)
	got, err = marshalAnswers(answers)
	want, oerr = xmlMarshalAnswers(answers)
	same("answers", got, err, want, oerr)
}

// A value or a service name holding a character XML 1.0 cannot carry
// used to travel as U+FFFD: the receiver, a mirror and a recovered peer
// held another digest than the sender, and nothing failed. A round trip
// now returns the same digest or fails naming the string.
func TestWireValuesDoNotChangeSilently(t *testing.T) {
	for _, c := range []struct {
		s     string
		lossy bool
	}{
		{"a\x01b", true}, {"bad\xff", true}, {"\uFFFE", true}, {"tab\tnl\ncr\r", false},
	} {
		for _, n := range []*tree.Node{
			tree.NewLabel("r", tree.NewValue(c.s)),
			tree.NewLabel("r", tree.NewFunc(c.s, tree.NewLabel("x"))),
		} {
			data, err := MarshalTree(n)
			if err != nil {
				if !c.lossy || !strings.Contains(err.Error(), strconv.Quote(c.s)) {
					t.Errorf("marshal %s: %v (want no error, or one naming %q)", n, err, c.s)
				}
				continue
			}
			if c.lossy {
				t.Errorf("marshal %s succeeded as %q; the wire cannot carry %q", n, data, c.s)
			}
			back, err := UnmarshalTree(data)
			if err != nil || back.Digest() != n.Digest() {
				t.Errorf("round trip of %s through %q: %v, %v", n, data, back, err)
			}
		}
	}
}

// One label rule on both sides: a label is a colon-free name under
// validLabel (the .axml lexer's identifier rule), and every ax: name is
// the wire's own.
func TestWireOneLabelRule(t *testing.T) {
	for _, c := range []struct {
		label string
		ok    bool
	}{
		{"foo:bar", false},  // came back as bar
		{"ax:value", false}, // came back as a value node
		{"ǅx", true},        // a lexer identifier; the decoder refused it
		{"x·y", false},      // marshalled into bytes the decoder refused
	} {
		n := tree.NewLabel("r", tree.NewLabel(c.label))
		data, err := MarshalTree(n)
		if (err == nil) != c.ok {
			t.Errorf("marshal label %q: %q, %v", c.label, data, err)
		}
		wire := "<r><" + c.label + "></" + c.label + "></r>"
		back, err := UnmarshalTree([]byte(wire))
		switch {
		case c.ok && (err != nil || !isoHash(n, back)):
			t.Errorf("decode %s: %v, %v", wire, back, err)
		case !c.ok && err == nil && back.Children[0].Kind == tree.Label:
			t.Errorf("decode %s accepted label %q", wire, back.Children[0].Name)
		}
	}
	for _, wire := range []string{`<A:0/>`, `<ax:forest/>`, `<r><ax:doc name="x"><y/></ax:doc></r>`} {
		if _, err := UnmarshalTree([]byte(wire)); err == nil {
			t.Errorf("decode %s: accepted", wire)
		}
	}
	if err := CheckDocName("ax:notes"); err == nil {
		t.Error("CheckDocName accepted an ax: name")
	}
}

// The decoder shares a label's string with an earlier equal label of the
// same input. Sharing never lets a label skip the label rule, and a
// shared name never stands in for another name it is a prefix of — also
// past the share table's capacity.
func TestWireSharedLabels(t *testing.T) {
	for _, wire := range []string{
		`<r><a/><a/><b><a/></b><1a/></r>`,
		`<r><ab/><ab/><ab:c/></r>`,
		`<r><x/><x><x/></x><x·y/></r>`,
		`<r><a/><ax:value>v</ax:value><a/><ax:forest/></r>`,
	} {
		if _, err := UnmarshalTree([]byte(wire)); err == nil {
			t.Errorf("decode %s: accepted", wire)
		}
	}
	names := []string{"ab", "abc", "ab", "a", "abcd", "a", "abc"}
	for i := 0; i < 40; i++ {
		names = append(names, fmt.Sprintf("l%d", i%23), fmt.Sprintf("l%d", i))
	}
	var wire strings.Builder
	wire.WriteString("<r>")
	for _, n := range names {
		wire.WriteString("<" + n + "/>")
	}
	wire.WriteString("</r>")
	data := []byte(wire.String())
	back, err := UnmarshalTree(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range back.Children {
		if c.Kind != tree.Label || c.Name != names[i] {
			t.Fatalf("child %d decoded as %s %q, want label %q", i, c.Kind, c.Name, names[i])
		}
	}
	agreeWithOracle(t, data, "", UnmarshalTree, xmlUnmarshalTree, isoHash)
}

// inboxRecord is the ax:doc record of a durable-ingest inbox holding n
// entry{id,body} pushes.
func inboxRecord(t testing.TB, n int) []byte {
	inbox := tree.NewLabel("inbox")
	for i := 0; i < n; i++ {
		inbox.Add(tree.NewLabel("entry",
			tree.NewLabel("id", tree.NewValue(fmt.Sprintf("e%06x", i))),
			tree.NewLabel("body", tree.NewValue(fmt.Sprintf("payload-%06x", i)))))
	}
	data, err := MarshalDocRecord("inbox000", inbox)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Decoding a 50-entry inbox allocates each node, each child slice and
// each value string once; a label string is allocated the first time its
// name occurs, not at every element (521 allocations; 668 when a label
// string was allocated per element).
func TestDecodeInboxAllocations(t *testing.T) {
	data := inboxRecord(t, 50)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := UnmarshalDocRecord(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 540 {
		t.Errorf("decoding a 50-entry inbox record: %.0f allocations, want ≤ 540", allocs)
	}
}

// Content after the root element and a repeated envelope part used to
// be ignored; they are errors now. The oracle still accepts every case,
// each of which falls in a documented rejection class.
func TestWireRejectsTrailingContentAndRepeatedParts(t *testing.T) {
	type decode struct {
		root         string
		ours, oracle func([]byte) error
	}
	asErr := func(f func([]byte) (*tree.Node, error)) func([]byte) error {
		return func(b []byte) error { _, err := f(b); return err }
	}
	treeDec := decode{"", asErr(UnmarshalTree), asErr(xmlUnmarshalTree)}
	forestDec := decode{elemForest,
		func(b []byte) error { _, err := UnmarshalForest(b); return err },
		func(b []byte) error { _, err := xmlUnmarshalForest(b); return err }}
	envDec := decode{elemEnvelope,
		func(b []byte) error { _, err := UnmarshalEnvelope(b); return err },
		func(b []byte) error { _, err := xmlUnmarshalEnvelope(b); return err }}
	docDec := decode{elemDoc,
		func(b []byte) error { _, _, err := UnmarshalDocRecord(b); return err },
		func(b []byte) error { _, _, err := xmlUnmarshalDocRecord(b); return err }}
	snapDec := decode{elemSnapshot,
		func(b []byte) error { _, err := UnmarshalSnapshot(b); return err },
		func(b []byte) error { _, err := xmlUnmarshalSnapshot(b); return err }}
	batchDec := decode{elemBatch,
		func(b []byte) error { _, err := unmarshalBatch(b); return err },
		func(b []byte) error { _, err := xmlUnmarshalBatch(b); return err }}
	answersDec := decode{elemAnswers,
		func(b []byte) error { _, err := UnmarshalAnswers(b); return err },
		func(b []byte) error { _, err := xmlUnmarshalAnswers(b); return err }}
	const inv = `<ax:envelope><ax:invoke service="f">`
	for _, c := range []struct {
		name string
		dec  decode
		data string
	}{
		{"tree then tree", treeDec, `<a/><b/>`},
		{"tree then text", treeDec, `<a/>junk`},
		{"forest then tree", forestDec, `<ax:forest><a/></ax:forest><b/>`},
		{"forest then text", forestDec, `<ax:forest></ax:forest>junk`},
		{"text before forest", forestDec, `junk<ax:forest></ax:forest>`},
		{"doc then doc", docDec, `<ax:doc name="d"><a/></ax:doc><ax:doc name="e"><b/></ax:doc>`},
		{"snapshot then text", snapDec, `<ax:snapshot></ax:snapshot>junk`},
		{"text in snapshot", snapDec, `<ax:snapshot>junk</ax:snapshot>`},
		{"two inputs", envDec, inv + `<ax:input><a/></ax:input><ax:input><b/></ax:input></ax:invoke></ax:envelope>`},
		{"two contexts", envDec, inv + `<ax:context/><ax:context><b/></ax:context></ax:invoke></ax:envelope>`},
		{"two trees in a part", envDec, inv + `<ax:input><a/><b/></ax:input></ax:invoke></ax:envelope>`},
		{"unknown part", envDec, inv + `<ax:extra/></ax:invoke></ax:envelope>`},
		{"part after envelope", envDec, inv + `</ax:invoke></ax:envelope><ax:input><b/></ax:input>`},
		{"batch then text", batchDec, `<ax:batch></ax:batch>junk`},
		{"text in batch", batchDec, `<ax:batch>junk</ax:batch>`},
		{"envelope then text in batch", batchDec, `<ax:batch>` + inv + `</ax:invoke></ax:envelope>junk</ax:batch>`},
		{"answers then tree", answersDec, `<ax:answers><ax:error>e</ax:error></ax:answers><a/>`},
		{"text in answers", answersDec, `<ax:answers>junk<ax:forest/></ax:answers>`},
	} {
		if err := c.dec.ours([]byte(c.data)); err == nil {
			t.Errorf("%s: %s accepted", c.name, c.data)
		}
		if err := c.dec.oracle([]byte(c.data)); err != nil {
			t.Errorf("%s: the oracle rejects %s too (%v): not a leniency", c.name, c.data, err)
		}
		if rejectionClass([]byte(c.data), c.dec.root) == "" {
			t.Errorf("%s: no rejection class covers %s", c.name, c.data)
		}
	}
	// What XML allows after the root still reads.
	if _, err := UnmarshalTree([]byte("<a/>\r\n<!-- c --><?pi x?>\t")); err != nil {
		t.Errorf("blank text, a comment and a processing instruction after the root: %v", err)
	}
}

// The XML subset the decoder reads, each case read as the oracle reads
// it; and what encoding/xml's Token refused, refused.
func TestWireXMLSubset(t *testing.T) {
	for _, wire := range []string{
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a>\n  <b/>\n</a>\n",
		`<a><!-- c --><b></b><!----></a>`,
		`<ax:call service='f "g"'><x/></ax:call>`,
		`<a x="1"y='2' ><b /></a >`,
		`<ax:value>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x1F600;&#0065;&#xd800;</ax:value>`,
		`<ax:value><![CDATA[<raw> & ]]]></ax:value>`,
		"<ax:value>a\r\nb\rc<![CDATA[\r\n]]>d\r</ax:value>",
		"<ax:value>\u0085  </ax:value>",
		"<a> <b/>&#32;</a>",
		`<ax:call service="a&#xA;b&#9;c"/>`,
		`<ax:value/>`,
		`<ax:value attr="ignored">v</ax:value>`,
	} {
		if _, err := UnmarshalTree([]byte(wire)); err != nil {
			t.Errorf("decode %q: %v", wire, err)
		}
		if _, err := xmlUnmarshalTree([]byte(wire)); err != nil {
			t.Errorf("the oracle rejects %q: %v", wire, err)
		}
		agreeWithOracle(t, []byte(wire), "", UnmarshalTree, xmlUnmarshalTree, isoHash)
	}
	for _, wire := range []string{
		`<a></b>`, `<a>`, `<a><b></a>`, "<ax:value>\x01</ax:value>", `<ax:value>&#1;</ax:value>`,
		"<ax:value>\xff</ax:value>", `<ax:value>&bogus;</ax:value>`, `<ax:value>&lt</ax:value>`,
		`<ax:value>&#x110000;</ax:value>`, `<ax:value>&#xFFFE;</ax:value>`, `<ax:value>&#X41;</ax:value>`,
		`<ax:value>]]></ax:value>`, `<a x=1/>`, `<a x="<"/>`, `<a x/>`, `<a/ >`, `< a/>`,
		`<!DOCTYPE a><a/>`, `<a xmlns:ax="urn:x"/>`, `<a><!-- x -- y --></a>`, `<a><![CDATA[x</a>`,
		`<ax:value><b/></ax:value>`, `</a>`, `<a x="1`, "<a>\x00</a>",
	} {
		if _, err := UnmarshalTree([]byte(wire)); err == nil {
			t.Errorf("decode %q: accepted", wire)
		}
	}
}

// goldenSeed is the system testdata/recovery was written from.
const goldenSeed = `
doc feed = feed{topic{name{"go"},posts}}
doc notes = log{entry{"boot"}}
`

// goldenDigests is what the writer of testdata/recovery held when it
// closed: the peer's Hash over both documents.
const goldenDigests = "feed=23f995bc31db7bce;notes=4375949aebf1efde;"

// TestRecoveryOpensEncodingXMLState opens a snapshot plus journal that
// the encoding/xml codec wrote (testdata/recovery: four graft records in
// the snapshot, two after it and one whole-document record, with values
// carrying every escape and a call whose service name needs escaping)
// into the digests its writer held.
func TestRecoveryOpensEncodingXMLState(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{JournalFile, SnapshotFile} {
		data, err := os.ReadFile(filepath.Join("testdata", "recovery", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, info, err := Open("golden", core.MustParseSystem(goldenSeed), WithDurability(Durability{Dir: dir, SnapshotEvery: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if info.SnapshotSeq != 4 || info.Replayed != 3 || info.Torn {
		t.Fatalf("recovery info: %+v", info)
	}
	if got := p.Hash(); got != goldenDigests {
		t.Fatalf("recovered digests %s, the writer held %s", got, goldenDigests)
	}
	_, payload, err := journal.ReadSnapshot(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	docs, err := UnmarshalSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := MarshalSnapshot(docs); err != nil || string(again) != string(payload) {
		t.Fatalf("the snapshot does not re-encode to its bytes: %v\n%s\n%s", err, again, payload)
	}
}

// BenchmarkWireCodec times the codec against the oracle on a snapshot of
// a 64-department inventory (≈ 0.6 MB of wire bytes).
func BenchmarkWireCodec(b *testing.B) {
	docs := []*tree.Document{tree.NewDocument("inventory", workload.Inventory(64, 64))}
	data, err := MarshalSnapshot(docs)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"encode", func() error { _, err := MarshalSnapshot(docs); return err }},
		{"encode-oracle", func() error { _, err := xmlMarshalSnapshot(docs); return err }},
		{"decode", func() error { _, err := UnmarshalSnapshot(data); return err }},
		{"decode-oracle", func() error { _, err := xmlUnmarshalSnapshot(data); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
