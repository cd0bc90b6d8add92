package peer

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"axml/internal/tree"
)

// The encoding/xml wire codec the hand-written one replaced, kept as the
// oracle: the differential tests and the FuzzUnmarshal* fuzzers check
// the product codec against it (same bytes out, same trees in). Its
// functions carry an xml prefix; the bodies are the old ones.

// wireName reconstitutes the prefixed wire name: Go's decoder splits
// "ax:value" into Space "ax" and Local "value" (the prefix is undeclared,
// so it survives as the Space).
func wireName(n xml.Name) string {
	if n.Space == "ax" {
		return "ax:" + n.Local
	}
	return n.Local
}

// xmlWireLabel reports whether a decoded element name re-emits as a
// well-formed XML element. Go's decoder is lenient about names in
// prefixed positions (it accepts <A:0/>), but the encoder writes names
// verbatim, so a label that is not a valid prefixed name would marshal
// into bytes no parser accepts; reject those on decode instead.
func xmlWireLabel(s string) bool {
	prefix, local, cut := strings.Cut(s, ":")
	if cut && !validLabel(local) {
		return false
	}
	return validLabel(prefix)
}

// xmlMarshalTree renders a tree in the XML wire format.
func xmlMarshalTree(n *tree.Node) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	if err := encodeNode(enc, n); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeNode(enc *xml.Encoder, n *tree.Node) error {
	if n == nil {
		return fmt.Errorf("peer: nil node")
	}
	var start xml.StartElement
	switch n.Kind {
	case tree.Label:
		start = xml.StartElement{Name: xml.Name{Local: n.Name}}
	case tree.Value:
		start = xml.StartElement{Name: xml.Name{Local: elemValue}}
	case tree.Func:
		start = xml.StartElement{
			Name: xml.Name{Local: elemCall},
			Attr: []xml.Attr{{Name: xml.Name{Local: attrService}, Value: n.Name}},
		}
	}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	if n.Kind == tree.Value {
		if err := enc.EncodeToken(xml.CharData(n.Name)); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := encodeNode(enc, c); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}

// xmlUnmarshalTree parses one tree from the XML wire format.
func xmlUnmarshalTree(data []byte) (*tree.Node, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	n, err := decodeNext(dec)
	if err != nil {
		return nil, err
	}
	if n == nil {
		return nil, fmt.Errorf("peer: empty document")
	}
	return n, nil
}

// decodeNext reads the next element as a tree, skipping whitespace;
// returns nil at end of enclosing element or input.
func decodeNext(dec *xml.Decoder) (*tree.Node, error) {
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return decodeElement(dec, t)
		case xml.EndElement:
			return nil, nil
		case xml.CharData:
			// Whitespace between elements; anything else is malformed.
			if len(bytes.TrimSpace(t)) != 0 {
				return nil, fmt.Errorf("peer: unexpected character data %q", string(t))
			}
		}
	}
}

func decodeElement(dec *xml.Decoder, start xml.StartElement) (*tree.Node, error) {
	switch wireName(start.Name) {
	case elemValue:
		var text bytes.Buffer
		for {
			tok, err := dec.Token()
			if err != nil {
				return nil, err
			}
			switch t := tok.(type) {
			case xml.CharData:
				text.Write(t)
			case xml.EndElement:
				return tree.NewValue(text.String()), nil
			default:
				return nil, fmt.Errorf("peer: unexpected token inside %s", elemValue)
			}
		}
	case elemCall:
		svc := ""
		for _, a := range start.Attr {
			if a.Name.Local == attrService {
				svc = a.Value
			}
		}
		if svc == "" {
			return nil, fmt.Errorf("peer: %s without service attribute", elemCall)
		}
		n := tree.NewFunc(svc)
		return decodeChildren(dec, n)
	default:
		name := wireName(start.Name)
		if !xmlWireLabel(name) {
			return nil, fmt.Errorf("peer: element name %q does not round-trip", name)
		}
		return decodeChildren(dec, tree.NewLabel(name))
	}
}

func decodeChildren(dec *xml.Decoder, n *tree.Node) (*tree.Node, error) {
	for {
		c, err := decodeNext(dec)
		if err != nil {
			return nil, err
		}
		if c == nil {
			return n, nil
		}
		n.Children = append(n.Children, c)
	}
}

// xmlMarshalForest renders a forest inside an ax:forest element.
func xmlMarshalForest(f tree.Forest) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodeForest(&buf, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeForest writes f as an ax:forest element to w.
func encodeForest(w io.Writer, f tree.Forest) error {
	enc := xml.NewEncoder(w)
	start := xml.StartElement{Name: xml.Name{Local: elemForest}}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	for _, t := range f {
		if err := encodeNode(enc, t); err != nil {
			return err
		}
	}
	if err := enc.EncodeToken(start.End()); err != nil {
		return err
	}
	return enc.Flush()
}

// xmlUnmarshalForest parses an ax:forest element.
func xmlUnmarshalForest(data []byte) (tree.Forest, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	tok, err := firstStart(dec)
	if err != nil {
		return nil, err
	}
	if wireName(tok.Name) != elemForest {
		return nil, fmt.Errorf("peer: expected %s, found %s", elemForest, wireName(tok.Name))
	}
	var out tree.Forest
	for {
		n, err := decodeNext(dec)
		if err != nil {
			return nil, err
		}
		if n == nil {
			return out, nil
		}
		out = append(out, n)
	}
}

func firstStart(dec *xml.Decoder) (xml.StartElement, error) {
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.StartElement{}, err
		}
		if s, ok := tok.(xml.StartElement); ok {
			return s, nil
		}
	}
}

// xmlMarshalDocRecord renders a named document state as an ax:doc element —
// the payload of a whole-document journal record, written after a
// by-hand edit (System.Touch) or a seed adoption, where no graft says
// what grew. Recovery merges it into the document by least upper bound,
// so it may be replayed twice or arrive already subsumed without harm.
func xmlMarshalDocRecord(name string, root *tree.Node) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	start := xml.StartElement{
		Name: xml.Name{Local: elemDoc},
		Attr: []xml.Attr{{Name: xml.Name{Local: attrName}, Value: name}},
	}
	if err := enc.EncodeToken(start); err != nil {
		return nil, err
	}
	if err := encodeNode(enc, root); err != nil {
		return nil, err
	}
	if err := enc.EncodeToken(start.End()); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// xmlUnmarshalDocRecord parses an ax:doc journal record.
func xmlUnmarshalDocRecord(data []byte) (name string, root *tree.Node, err error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	start, err := firstStart(dec)
	if err != nil {
		return "", nil, fmt.Errorf("peer: bad doc record: %v", err)
	}
	return decodeDocElement(dec, start)
}

func decodeDocElement(dec *xml.Decoder, start xml.StartElement) (string, *tree.Node, error) {
	if wireName(start.Name) != elemDoc {
		return "", nil, fmt.Errorf("peer: expected %s, found %s", elemDoc, wireName(start.Name))
	}
	name := ""
	for _, a := range start.Attr {
		if a.Name.Local == attrName {
			name = a.Value
		}
	}
	if name == "" {
		return "", nil, fmt.Errorf("peer: %s without %s attribute", elemDoc, attrName)
	}
	root, err := decodeNext(dec)
	if err != nil {
		return "", nil, err
	}
	if root == nil {
		return "", nil, fmt.Errorf("peer: %s %q without a tree", elemDoc, name)
	}
	// Consume the closing tag (decodeNext returns nil on it), so a caller
	// iterating over sibling ax:doc elements lands on the next one.
	extra, err := decodeNext(dec)
	if err != nil {
		return "", nil, err
	}
	if extra != nil {
		return "", nil, fmt.Errorf("peer: %s %q with more than one tree", elemDoc, name)
	}
	return name, root, nil
}

// MarshalSnapshot renders a document set as an ax:snapshot element of
// ax:doc entries by encoding every document: the oracle a snapshot
// written by Peer.snapshotLocked, which copies unchanged documents'
// bytes, must equal byte for byte.
func MarshalSnapshot(docs []*tree.Document) ([]byte, error) {
	var e encoder
	e.open(elemSnapshot)
	for _, d := range docs {
		e.doc(d.Name, d.Root)
	}
	e.close(elemSnapshot)
	return e.bytes()
}

// xmlMarshalSnapshot renders a document set as an ax:snapshot element of
// ax:doc entries — the payload of a snapshot file.
func xmlMarshalSnapshot(docs []*tree.Document) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	snap := xml.StartElement{Name: xml.Name{Local: elemSnapshot}}
	if err := enc.EncodeToken(snap); err != nil {
		return nil, err
	}
	for _, d := range docs {
		start := xml.StartElement{
			Name: xml.Name{Local: elemDoc},
			Attr: []xml.Attr{{Name: xml.Name{Local: attrName}, Value: d.Name}},
		}
		if err := enc.EncodeToken(start); err != nil {
			return nil, err
		}
		if err := encodeNode(enc, d.Root); err != nil {
			return nil, err
		}
		if err := enc.EncodeToken(start.End()); err != nil {
			return nil, err
		}
	}
	if err := enc.EncodeToken(snap.End()); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// xmlUnmarshalSnapshot parses an ax:snapshot element back into documents.
func xmlUnmarshalSnapshot(data []byte) ([]*tree.Document, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	snap, err := firstStart(dec)
	if err != nil {
		return nil, fmt.Errorf("peer: bad snapshot: %v", err)
	}
	if wireName(snap.Name) != elemSnapshot {
		return nil, fmt.Errorf("peer: expected %s, found %s", elemSnapshot, wireName(snap.Name))
	}
	var docs []*tree.Document
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return docs, nil
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name, root, err := decodeDocElement(dec, t)
			if err != nil {
				return nil, err
			}
			docs = append(docs, tree.NewDocument(name, root))
		case xml.EndElement:
			return docs, nil
		}
	}
}

// xmlMarshalEnvelope renders the invocation envelope.
func xmlMarshalEnvelope(e Envelope) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	if err := encodeEnvelope(enc, e); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeEnvelope writes e as an ax:envelope element to enc.
func encodeEnvelope(enc *xml.Encoder, e Envelope) error {
	env := xml.StartElement{Name: xml.Name{Local: elemEnvelope}}
	inv := xml.StartElement{
		Name: xml.Name{Local: elemInvoke},
		Attr: []xml.Attr{{Name: xml.Name{Local: attrService}, Value: e.Service}},
	}
	if err := enc.EncodeToken(env); err != nil {
		return err
	}
	if err := enc.EncodeToken(inv); err != nil {
		return err
	}
	for _, part := range []struct {
		name string
		node *tree.Node
	}{{elemInput, e.Input}, {elemContext, e.Context}} {
		start := xml.StartElement{Name: xml.Name{Local: part.name}}
		if err := enc.EncodeToken(start); err != nil {
			return err
		}
		if part.node != nil {
			if err := encodeNode(enc, part.node); err != nil {
				return err
			}
		}
		if err := enc.EncodeToken(start.End()); err != nil {
			return err
		}
	}
	if err := enc.EncodeToken(inv.End()); err != nil {
		return err
	}
	return enc.EncodeToken(env.End())
}

// xmlUnmarshalEnvelope parses an invocation envelope.
func xmlUnmarshalEnvelope(data []byte) (Envelope, error) {
	var e Envelope
	dec := xml.NewDecoder(bytes.NewReader(data))
	env, err := firstStart(dec)
	if err != nil || wireName(env.Name) != elemEnvelope {
		return e, fmt.Errorf("peer: bad envelope: %v", err)
	}
	inv, err := firstStart(dec)
	if err != nil || wireName(inv.Name) != elemInvoke {
		return e, fmt.Errorf("peer: bad invoke element: %v", err)
	}
	for _, a := range inv.Attr {
		if a.Name.Local == attrService {
			e.Service = a.Value
		}
	}
	if e.Service == "" {
		return e, fmt.Errorf("peer: envelope without service")
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return e, nil
		}
		if err != nil {
			return e, err
		}
		s, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch wireName(s.Name) {
		case elemInput:
			n, err := decodeNext(dec)
			if err != nil {
				return e, err
			}
			e.Input = n
		case elemContext:
			n, err := decodeNext(dec)
			if err != nil {
				return e, err
			}
			e.Context = n
		}
	}
}

// xmlMarshalBatch renders envelopes as an ax:batch request.
func xmlMarshalBatch(envs []Envelope) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	start := xml.StartElement{Name: xml.Name{Local: elemBatch}}
	if err := enc.EncodeToken(start); err != nil {
		return nil, err
	}
	for _, e := range envs {
		if err := encodeEnvelope(enc, e); err != nil {
			return nil, err
		}
	}
	if err := enc.EncodeToken(start.End()); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// xmlUnmarshalBatch parses an ax:batch request, each child element read
// as xmlUnmarshalEnvelope reads an envelope.
func xmlUnmarshalBatch(data []byte) ([]Envelope, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	root, err := firstStart(dec)
	if err != nil || wireName(root.Name) != elemBatch {
		return nil, fmt.Errorf("peer: bad batch: %v", err)
	}
	var envs []Envelope
	for {
		start := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch tok.(type) {
		case xml.EndElement:
			return envs, nil
		case xml.StartElement:
			if err := dec.Skip(); err != nil {
				return nil, err
			}
			env, err := xmlUnmarshalEnvelope(data[start:dec.InputOffset()])
			if err != nil {
				return nil, err
			}
			envs = append(envs, env)
		}
	}
}

// xmlMarshalAnswers renders a batch's answers as an ax:answers element.
func xmlMarshalAnswers(answers []Answer) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	start := xml.StartElement{Name: xml.Name{Local: elemAnswers}}
	if err := enc.EncodeToken(start); err != nil {
		return nil, err
	}
	for _, a := range answers {
		if a.Err == nil {
			if err := enc.Flush(); err != nil {
				return nil, err
			}
			if err := encodeForest(&buf, a.Forest); err != nil {
				return nil, err
			}
			continue
		}
		fail := xml.StartElement{Name: xml.Name{Local: elemError}}
		for _, tok := range []xml.Token{fail, xml.CharData(a.Err.Error()), fail.End()} {
			if err := enc.EncodeToken(tok); err != nil {
				return nil, err
			}
		}
	}
	if err := enc.EncodeToken(start.End()); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// xmlUnmarshalAnswers parses an ax:answers element: ax:forest and
// ax:error children.
func xmlUnmarshalAnswers(data []byte) ([]Answer, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	root, err := firstStart(dec)
	if err != nil || wireName(root.Name) != elemAnswers {
		return nil, fmt.Errorf("peer: bad answers: %v", err)
	}
	var out []Answer
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		t, ok := tok.(xml.StartElement)
		switch {
		case !ok:
			if _, end := tok.(xml.EndElement); end {
				return out, nil
			}
		case wireName(t.Name) == elemForest:
			holder, err := decodeChildren(dec, &tree.Node{})
			if err != nil {
				return nil, err
			}
			out = append(out, Answer{Forest: holder.Children})
		case wireName(t.Name) == elemError:
			var text bytes.Buffer
			for done := false; !done; {
				tok, err := dec.Token()
				if err != nil {
					return nil, err
				}
				switch tt := tok.(type) {
				case xml.CharData:
					text.Write(tt)
				case xml.EndElement:
					done = true
				default:
					return nil, fmt.Errorf("peer: unexpected token inside %s", elemError)
				}
			}
			out = append(out, Answer{Err: errors.New(text.String())})
		default:
			return nil, fmt.Errorf("peer: unexpected <%s> in %s", wireName(t.Name), elemAnswers)
		}
	}
}

// Rejection classes: the inputs the oracle accepts and the codec may
// reject (DESIGN.md, "Wire codec"). Anything else the oracle accepts, the
// codec must accept as the same value.
const (
	classDirective = "a DOCTYPE or other directive"
	classPrefix    = "a namespace declaration, a prefix outside ax:, or an ax: name where a tree stands"
	classLabel     = "a label outside the one label rule"
	classStructure = "content the grammar does not place there: after the root, a second part or tree, stray text, or a malformed rest"
)

// rejectionClass names the rejection class data falls in, read against
// the grammar whose root element is root ("" for a tree), or returns ""
// when data is in the subset both decoders must read alike. It walks the
// oracle's tokenizer to the end of the input, so a codec that misreads
// the XML subset itself finds no excuse here.
func rejectionClass(data []byte, root string) string {
	type frame struct {
		elem  string // the open element's wire name
		n     int    // child elements seen
		parts map[string]bool
	}
	dec := xml.NewDecoder(bytes.NewReader(data))
	stack := []*frame{{}} // the root's virtual parent
	for {
		tok, err := dec.Token()
		switch {
		case err == io.EOF && len(stack) == 1 && stack[0].n == 1:
			return ""
		case err != nil:
			return classStructure
		}
		parent := stack[len(stack)-1]
		switch t := tok.(type) {
		case xml.Directive:
			return classDirective
		case xml.CharData:
			if len(bytes.TrimSpace(t)) != 0 && parent.elem != elemValue && parent.elem != elemError {
				return classStructure
			}
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.StartElement:
			for _, a := range t.Attr {
				if a.Name.Space != "" || a.Name.Local == "xmlns" {
					return classPrefix
				}
			}
			name := wireName(t.Name)
			isTree := t.Name.Space == "" || name == elemValue || name == elemCall
			if t.Name.Space != "" && t.Name.Space != "ax" {
				return classPrefix
			}
			parent.n++
			var ok bool
			switch {
			case len(stack) == 1: // the root
				if root == "" && !isTree {
					return classPrefix
				}
				ok = parent.n == 1 && (root == "" || name == root)
			case parent.elem == elemSnapshot:
				ok = name == elemDoc
			case parent.elem == elemEnvelope:
				ok = name == elemInvoke && parent.n == 1
			case parent.elem == elemInvoke:
				ok = (name == elemInput || name == elemContext) && !parent.parts[name]
				parent.parts[name] = true
			case parent.elem == elemValue || parent.elem == elemError:
				ok = false
			case parent.elem == elemBatch:
				ok = name == elemEnvelope
			case parent.elem == elemAnswers:
				ok = name == elemForest || name == elemError
			case !isTree: // a tree position: ax:forest, ax:doc, a part, a label or a call
				return classPrefix
			default:
				single := parent.elem == elemDoc || parent.elem == elemInput || parent.elem == elemContext
				ok = !single || parent.n == 1
			}
			switch {
			case !ok:
				return classStructure
			case t.Name.Space == "" && !validLabel(name):
				return classLabel
			}
			stack = append(stack, &frame{elem: name, parts: map[string]bool{}})
		}
	}
}
