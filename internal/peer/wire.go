// Package peer implements the distributed substrate of the paper's
// setting: AXML documents and services live on peers that exchange
// intensional documents over HTTP, the stand-in for the SOAP/WSDL Web
// service stack of 2004 (see DESIGN.md for the substitution argument).
//
// The wire format is XML, written and read by the package's own codec
// for its closed vocabulary (codec.go): data nodes are elements, atomic
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
	"errors"
	"fmt"
	"unicode"

	"axml/internal/core"
	"axml/internal/tree"
)

// Reserved wire element names. A label cannot contain ':' (validLabel),
// so these never collide with data.
const (
	elemValue    = "ax:value"
	elemCall     = "ax:call"
	elemEnvelope = "ax:envelope"
	elemInvoke   = "ax:invoke"
	elemInput    = "ax:input"
	elemContext  = "ax:context"
	elemForest   = "ax:forest"
	elemDoc      = "ax:doc"
	elemSnapshot = "ax:snapshot"
	elemBatch    = "ax:batch"
	elemAnswers  = "ax:answers"
	elemError    = "ax:error"
	attrService  = "service"
	attrName     = "name"
)

// validLabel is the one label rule both codec directions apply: a label
// is a colon-free XML name whose characters are letters, digits, '_',
// '-' and '.' (not starting with a digit, '-' or '.') — the .axml
// lexer's identifier rule. The colon is what keeps the wire's own ax:
// names apart from data, so every ax: name is reserved.
func validLabel(s string) bool {
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

// CheckDocName rejects a document name the wire cannot carry. A name
// travels as a path segment (/axml/doc/<name>), as a NAME=DIGEST entry
// of /axml/hash, and — for a replica seed — as its root element, so it
// must pass the label rule.
func CheckDocName(name string) error {
	if !validLabel(name) {
		return fmt.Errorf("peer: document name %q is not an XML element name, so the wire cannot carry it", name)
	}
	return nil
}

// MarshalTree renders a tree in the XML wire format.
func MarshalTree(n *tree.Node) ([]byte, error) {
	var e encoder
	e.node(n)
	return e.bytes()
}

// UnmarshalTree parses one tree from the XML wire format.
func UnmarshalTree(data []byte) (*tree.Node, error) {
	return decodeRoot(data, "", (*scanner).tree)
}

// MarshalForest renders a forest inside an ax:forest element.
func MarshalForest(f tree.Forest) ([]byte, error) {
	var e encoder
	e.forest(f)
	return e.bytes()
}

// UnmarshalForest parses an ax:forest element.
func UnmarshalForest(data []byte) (tree.Forest, error) {
	return decodeRoot(data, elemForest, func(s *scanner) (tree.Forest, error) {
		var holder tree.Node
		err := s.children(&holder)
		return holder.Children, err
	})
}

// MarshalDocRecord renders a named document state as an ax:doc element —
// the payload of a whole-document journal record, written after a
// by-hand edit (System.Touch) or a seed adoption, where no graft says
// what grew. Recovery merges it into the document by least upper bound,
// so it may be replayed twice or arrive already subsumed without harm.
func MarshalDocRecord(name string, root *tree.Node) ([]byte, error) {
	var e encoder
	e.doc(name, root)
	return e.bytes()
}

// UnmarshalDocRecord parses an ax:doc journal record.
func UnmarshalDocRecord(data []byte) (name string, root *tree.Node, err error) {
	d, err := decodeRoot(data, elemDoc, (*scanner).doc)
	if err != nil {
		return "", nil, err
	}
	return d.Name, d.Root, nil
}

// doc reads an ax:doc element: a name attribute and exactly one tree.
func (s *scanner) doc() (*tree.Document, error) {
	name := s.attr(attrName)
	if name == "" {
		return nil, fmt.Errorf("%s without %s attribute", elemDoc, attrName)
	}
	root, err := s.one()
	if err == nil && root == nil {
		err = fmt.Errorf("%s %q without a tree", elemDoc, name)
	}
	if err != nil {
		return nil, err
	}
	return tree.NewDocument(name, root), nil
}

// UnmarshalSnapshot parses an ax:snapshot element (ax:doc entries, the
// payload of a snapshot file, written by Peer.snapshotLocked) back into
// documents, in file order: it splits the payload into ax:doc spans
// (scanner.skip) and decodes them on core.FanOut's goroutines, each with
// its own scanner (byte offsets stay absolute, label sharing is per
// span); the faults of failing spans are joined in file order.
func UnmarshalSnapshot(data []byte) ([]*tree.Document, error) {
	spans, err := childSpans(data, elemSnapshot, elemDoc)
	if err != nil {
		return nil, err
	}
	docs, errs := make([]*tree.Document, len(spans)), make([]error, len(spans))
	core.FanOut(len(spans), func(i int) {
		s := &scanner{data: data[:spans[i].hi], pos: spans[i].lo}
		_, _ = s.next() // the ax:doc start tag, which the split read without fault
		if docs[i], errs[i] = s.doc(); errs[i] != nil {
			errs[i] = fmt.Errorf("peer: wire byte %d: %w", s.pos, errs[i])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return docs, nil
}

// Envelope is an invocation request: service name, input and context.
type Envelope struct {
	Service string
	Input   *tree.Node
	Context *tree.Node
}

// MarshalEnvelope renders the invocation envelope.
func MarshalEnvelope(env Envelope) ([]byte, error) {
	if env.Service == "" {
		return nil, errors.New("peer: envelope without service")
	}
	var e encoder
	e.open(elemEnvelope)
	e.open(elemInvoke, attrService, env.Service)
	for i, part := range [...]*tree.Node{env.Input, env.Context} {
		name := [...]string{elemInput, elemContext}[i]
		e.open(name)
		if part != nil {
			e.node(part)
		}
		e.close(name)
	}
	e.close(elemInvoke)
	e.close(elemEnvelope)
	return e.bytes()
}

// UnmarshalEnvelope parses an invocation envelope: one ax:invoke naming
// the service, with at most one ax:input and ax:context of ≤ 1 tree each.
func UnmarshalEnvelope(data []byte) (Envelope, error) {
	return decodeRoot(data, elemEnvelope, func(s *scanner) (env Envelope, err error) {
		invoked := false
		err = s.elements(func() error {
			if invoked || string(s.name) != elemInvoke {
				return fmt.Errorf("expected one %s, found %s", elemInvoke, s.name)
			}
			invoked = true
			if env.Service = s.attr(attrService); env.Service == "" {
				return errors.New("envelope without service")
			}
			parts := [...]struct {
				name string
				node **tree.Node
				seen bool
			}{{elemInput, &env.Input, false}, {elemContext, &env.Context, false}}
			return s.elements(func() (err error) {
				for i := range parts {
					if p := &parts[i]; p.name == string(s.name) && !p.seen {
						p.seen = true
						*p.node, err = s.one()
						return err
					}
				}
				return fmt.Errorf("unexpected or repeated <%s> in %s", s.name, elemInvoke)
			})
		})
		if err == nil && !invoked {
			err = fmt.Errorf("envelope without %s", elemInvoke)
		}
		return env, err
	})
}

// batchBody writes an ax:batch around encoded envelopes.
func batchBody(bodies [][]byte) []byte {
	var e encoder
	e.open(elemBatch)
	for _, body := range bodies {
		e.b = append(e.b, body...)
	}
	e.close(elemBatch)
	return e.b
}

// Answer is one envelope's answer in an ax:answers element: the forest
// it evaluated to, or the error it failed with.
type Answer struct {
	Forest tree.Forest
	Err    error
}

// UnmarshalAnswers parses an ax:answers element. An ax:error reads as a
// non-nil Err, even when it holds no text.
func UnmarshalAnswers(data []byte) ([]Answer, error) {
	return decodeRoot(data, elemAnswers, func(s *scanner) (answers []Answer, err error) {
		err = s.elements(func() (err error) {
			var a Answer
			switch string(s.name) {
			case elemForest:
				var holder tree.Node
				err = s.children(&holder)
				a.Forest = holder.Children
			case elemError:
				var msg *tree.Node
				if msg, err = s.value(); err == nil {
					a.Err = errors.New(msg.Name)
				}
			default:
				return fmt.Errorf("expected %s or %s, found %s", elemForest, elemError, s.name)
			}
			answers = append(answers, a)
			return err
		})
		return answers, err
	})
}
