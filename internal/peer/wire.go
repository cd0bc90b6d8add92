// Package peer implements the distributed substrate of the paper's
// setting: AXML documents and services live on peers that exchange
// intensional documents over HTTP, the stand-in for the SOAP/WSDL Web
// service stack of 2004 (see DESIGN.md for the substitution argument).
//
// The wire format is XML (encoding/xml): data nodes are elements, atomic
// values are ax:value elements, and service calls are ax:call elements
// carrying the service name — so intensional data travels between peers
// exactly as the paper requires ("Web services in this context can
// exchange intensional information").
//
// Peers evaluate their services against their own documents; remote calls
// embed in local documents through RemoteService, and a synchronous
// distributed fixpoint (Coordinator) detects global termination, the
// distributed concern raised in the paper's conclusion.
package peer

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"

	"axml/internal/tree"
)

// Reserved wire element names. AXML labels cannot contain ':', so these
// never collide with data.
const (
	elemValue    = "ax:value"
	elemCall     = "ax:call"
	elemEnvelope = "ax:envelope"
	elemInvoke   = "ax:invoke"
	elemInput    = "ax:input"
	elemContext  = "ax:context"
	elemResponse = "ax:response"
	elemForest   = "ax:forest"
	elemFault    = "ax:fault"
	elemDoc      = "ax:doc"
	elemSnapshot = "ax:snapshot"
	attrService  = "service"
	attrName     = "name"
)

// wireName reconstitutes the prefixed wire name: Go's decoder splits
// "ax:value" into Space "ax" and Local "value" (the prefix is undeclared,
// so it survives as the Space).
func wireName(n xml.Name) string {
	if n.Space == "ax" {
		return "ax:" + n.Local
	}
	return n.Local
}

// validWireLabel reports whether a decoded element name re-emits as a
// well-formed XML element. Go's decoder is lenient about names in
// prefixed positions (it accepts <A:0/>), but the encoder writes names
// verbatim, so a label that is not a valid prefixed name would marshal
// into bytes no parser accepts; reject those on decode instead.
func validWireLabel(s string) bool {
	prefix, local, cut := strings.Cut(s, ":")
	if cut && !validNCName(local) {
		return false
	}
	return validNCName(prefix)
}

// CheckDocName rejects a document name the wire cannot carry. A name
// travels as a path segment (/axml/doc/<name>), as a NAME=DIGEST entry
// of /axml/hash, and — for a replica seed — as its root element, so it
// must pass the rule decoded labels pass.
func CheckDocName(name string) error {
	if !validWireLabel(name) {
		return fmt.Errorf("peer: document name %q is not an XML element name, so the wire cannot carry it", name)
	}
	return nil
}

func validNCName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || unicode.IsLetter(r) {
			continue
		}
		if i > 0 && (r == '-' || r == '.' || unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}

// MarshalTree renders a tree in the XML wire format.
func MarshalTree(n *tree.Node) ([]byte, error) {
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

// UnmarshalTree parses one tree from the XML wire format.
func UnmarshalTree(data []byte) (*tree.Node, error) {
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
		if !validWireLabel(name) {
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

// MarshalForest renders a forest inside an ax:forest element.
func MarshalForest(f tree.Forest) ([]byte, error) {
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

// UnmarshalForest parses an ax:forest element.
func UnmarshalForest(data []byte) (tree.Forest, error) {
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

// MarshalDocRecord renders a named document state as an ax:doc element —
// the payload of a whole-document journal record, written after a
// by-hand edit (System.Touch) or a seed adoption, where no graft says
// what grew. Recovery merges it into the document by least upper bound,
// so it may be replayed twice or arrive already subsumed without harm.
func MarshalDocRecord(name string, root *tree.Node) ([]byte, error) {
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

// UnmarshalDocRecord parses an ax:doc journal record.
func UnmarshalDocRecord(data []byte) (name string, root *tree.Node, err error) {
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
// ax:doc entries — the payload of a snapshot file.
func MarshalSnapshot(docs []*tree.Document) ([]byte, error) {
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

// UnmarshalSnapshot parses an ax:snapshot element back into documents.
func UnmarshalSnapshot(data []byte) ([]*tree.Document, error) {
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

// Envelope is an invocation request: service name, input and context.
type Envelope struct {
	Service string
	Input   *tree.Node
	Context *tree.Node
}

// MarshalEnvelope renders the invocation envelope.
func MarshalEnvelope(e Envelope) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	env := xml.StartElement{Name: xml.Name{Local: elemEnvelope}}
	inv := xml.StartElement{
		Name: xml.Name{Local: elemInvoke},
		Attr: []xml.Attr{{Name: xml.Name{Local: attrService}, Value: e.Service}},
	}
	if err := enc.EncodeToken(env); err != nil {
		return nil, err
	}
	if err := enc.EncodeToken(inv); err != nil {
		return nil, err
	}
	for _, part := range []struct {
		name string
		node *tree.Node
	}{{elemInput, e.Input}, {elemContext, e.Context}} {
		start := xml.StartElement{Name: xml.Name{Local: part.name}}
		if err := enc.EncodeToken(start); err != nil {
			return nil, err
		}
		if part.node != nil {
			if err := encodeNode(enc, part.node); err != nil {
				return nil, err
			}
		}
		if err := enc.EncodeToken(start.End()); err != nil {
			return nil, err
		}
	}
	if err := enc.EncodeToken(inv.End()); err != nil {
		return nil, err
	}
	if err := enc.EncodeToken(env.End()); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalEnvelope parses an invocation envelope.
func UnmarshalEnvelope(data []byte) (Envelope, error) {
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
