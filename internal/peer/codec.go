package peer

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"axml/internal/tree"
)

// The wire codec: one append-encoder and one scanner for the closed ax:
// vocabulary. The encoder's bytes are encoding/xml's for every tree it
// accepts, so journals and snapshots written by either read the same;
// the scanner reads an XML subset straight from the bytes, checking what
// encoding/xml's Token checks. DESIGN.md, "Wire codec", has the subset
// and the rejection classes.

// encoder appends the wire form of trees into one buffer; the first
// error sticks and ends the encoding.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// open writes a start tag with name="value" attribute pairs. It doubles a
// nearly full buffer: append's 1.25× steps copy a snapshot five times.
func (e *encoder) open(name string, attrs ...string) {
	if cap(e.b)-len(e.b) < 256 {
		e.b = slices.Grow(e.b, len(e.b)+256)
	}
	e.b = append(append(e.b, '<'), name...)
	for i := 0; i+1 < len(attrs); i += 2 {
		e.b = append(append(append(e.b, ' '), attrs[i]...), `="`...)
		e.escape(attrs[i], attrs[i+1], true)
		e.b = append(e.b, '"')
	}
	e.b = append(e.b, '>')
}

func (e *encoder) close(name string) {
	e.b = append(append(append(e.b, "</"...), name...), '>')
}

// node writes one tree. It fails on a tree the scanner would not read
// back as the same tree: a label outside the label rule, a call without
// a service name, a value with children, or a character XML 1.0 cannot
// carry.
func (e *encoder) node(n *tree.Node) {
	switch {
	case e.err != nil:
		return
	case n == nil:
		e.err = errors.New("peer: nil node")
		return
	}
	name := n.Name
	switch n.Kind {
	case tree.Label:
		if !validLabel(n.Name) {
			e.err = fmt.Errorf("peer: label %q is not a wire label (a colon-free XML name; ax: names are the wire's own)", n.Name)
			return
		}
		e.open(name)
	case tree.Value:
		if len(n.Children) > 0 {
			e.err = fmt.Errorf("peer: value %q has children", n.Name)
			return
		}
		e.open(elemValue)
		e.escape("value", n.Name, false)
		e.close(elemValue)
		return
	case tree.Func:
		if n.Name == "" {
			e.err = fmt.Errorf("peer: %s without a service name", elemCall)
			return
		}
		e.open(elemCall, attrService, n.Name)
		name = elemCall
	default:
		e.err = fmt.Errorf("peer: node kind %d has no wire form", n.Kind)
		return
	}
	for _, c := range n.Children {
		e.node(c)
	}
	e.close(name)
}

func (e *encoder) forest(f tree.Forest) {
	e.open(elemForest)
	for _, t := range f {
		e.node(t)
	}
	e.close(elemForest)
}

func (e *encoder) doc(name string, root *tree.Node) {
	e.open(elemDoc, attrName, name)
	e.node(root)
	e.close(elemDoc)
}

// escape writes s as encoding/xml escapes character data (attr false)
// and attribute values (attr true, where \n is escaped as well). A
// character XML 1.0 cannot carry, or invalid UTF-8, fails with an error
// naming s and what it is.
func (e *encoder) escape(what, s string, attr bool) {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		esc := strings.IndexByte("\"'&<>\t\n\r", c)
		switch {
		case c >= utf8.RuneSelf:
			if r, n := utf8.DecodeRuneInString(s[i:]); (r != utf8.RuneError || n > 1) && inXMLRange(r) {
				i += n
				continue
			}
		case c == '\n' && !attr, c >= 0x20 && esc < 0:
			i++
			continue
		case esc >= 0:
			e.b = append(append(e.b, s[last:i]...), [...]string{"&#34;", "&#39;", "&amp;", "&lt;", "&gt;", "&#x9;", "&#xA;", "&#xD;"}[esc]...)
			i++
			last = i
			continue
		}
		e.err = fmt.Errorf("peer: %s %q holds a character XML 1.0 cannot carry", what, s)
		return
	}
	e.b = append(e.b, s[last:]...)
}

// inXMLRange is XML 1.0's Char production.
func inXMLRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// scanner reads the wire's XML subset from one byte slice.
type scanner struct {
	data []byte
	pos  int

	// The current tag, set by next: its name (a slice of data), and for
	// a start tag where it begins and its attributes, whose decoded
	// values live in vals.
	name  []byte
	tag   int
	attrs []wireAttr
	vals  []byte
	// selfClosed: the current start tag was <name/>; next returns its
	// end tag without reading.
	selfClosed bool

	// text accumulates decoded character data until its reader resets it.
	text []byte
	// nodes holds the children of the open elements, flattened: an
	// element's children are copied out once, into a slice of their size.
	nodes []*tree.Node

	// labels holds the last label names read, validated: a label seen
	// before in the same input shares its string. Values are not shared.
	labels [8]string
	nlabel int
}

type wireAttr struct {
	name   []byte
	lo, hi int // the decoded value is vals[lo:hi]
}

type token uint8

const (
	tokEOF token = iota
	tokStart
	tokEnd
	tokText
)

// decodeRoot reads data as one document whose root element is named
// root (any tree element when root is empty), with body reading the root
// element from its start tag on. Only blank text, comments and
// processing instructions may stand around the root.
func decodeRoot[T any](data []byte, root string, body func(*scanner) (T, error)) (T, error) {
	s := &scanner{data: data}
	var out T
	seen := false
	err := s.elements(func() (err error) {
		switch {
		case seen:
			return errors.New("content after the root element")
		case root != "" && string(s.name) != root:
			return fmt.Errorf("expected %s, found %s", root, s.name)
		}
		seen = true
		out, err = body(s)
		return err
	})
	if err == nil && !seen {
		err = errors.New("empty document")
	}
	if err != nil {
		return *new(T), fmt.Errorf("peer: wire byte %d: %w", s.pos, err)
	}
	return out, nil
}

// elements calls each at every child element's start tag of the element
// whose start tag was just read, skipping blank text, up to its end tag;
// with no element open, up to the end of the input.
func (s *scanner) elements(each func() error) error {
	parent := s.name
	for {
		tok, err := s.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			err = each()
		case tokText:
			if len(bytes.TrimSpace(s.text)) != 0 {
				return fmt.Errorf("unexpected character data %q", s.text)
			}
			s.text = s.text[:0]
		case tokEnd:
			if !bytes.Equal(s.name, parent) {
				return fmt.Errorf("element <%s> closed by </%s>", parent, s.name)
			}
			return nil
		case tokEOF:
			if parent != nil {
				return fmt.Errorf("unexpected EOF inside <%s>", parent)
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// skip reads past the end tag of the element whose start tag was just
// read, counting nesting and building nothing. It reads next's tokens, so
// the element ends where a decoder, which checks names and shape, ends it.
func (s *scanner) skip() error {
	elem := s.name
	for depth := 1; depth > 0; {
		tok, err := s.next()
		switch {
		case err != nil:
			return err
		case tok == tokEOF:
			return fmt.Errorf("unexpected EOF inside <%s>", elem)
		case tok == tokStart:
			depth++
		case tok == tokEnd:
			depth--
		}
		s.text = s.text[:0]
	}
	return nil
}

// tree reads the tree element whose start tag was just read.
func (s *scanner) tree() (*tree.Node, error) {
	var n *tree.Node
	switch string(s.name) {
	case elemValue:
		return s.value()
	case elemCall:
		if n = tree.NewFunc(s.attr(attrService)); n.Name == "" {
			return nil, fmt.Errorf("%s without service attribute", elemCall)
		}
	default:
		if n = tree.NewLabel(s.label()); n.Name == "" {
			return nil, fmt.Errorf("element <%s> is not a wire label (a colon-free XML name; ax: names are the wire's own)", s.name)
		}
	}
	return n, s.children(n)
}

// label is the current start tag's name as a label ("" when it is not a
// wire label), the string of an earlier equal label when there is one.
func (s *scanner) label() string {
	for _, l := range s.labels[:min(s.nlabel, len(s.labels))] {
		if l == string(s.name) {
			return l
		}
	}
	if name := string(s.name); validLabel(name) {
		s.labels[s.nlabel%len(s.labels)], s.nlabel = name, s.nlabel+1
		return name
	}
	return ""
}

// children reads the child trees of n's element into n.Children.
func (s *scanner) children(n *tree.Node) error {
	mark := len(s.nodes)
	err := s.elements(func() error {
		c, err := s.tree()
		s.nodes = append(s.nodes, c)
		return err
	})
	if err == nil && len(s.nodes) > mark {
		n.Children = slices.Clone(s.nodes[mark:])
	}
	s.nodes = s.nodes[:mark]
	return err
}

// one reads the content of the element whose start tag was just read as
// at most one tree (nil for none).
func (s *scanner) one() (*tree.Node, error) {
	var holder tree.Node
	err := s.children(&holder)
	if err == nil && len(holder.Children) > 1 {
		err = fmt.Errorf("<%s> holds more than one tree", s.name)
	}
	if err != nil || len(holder.Children) == 0 {
		return nil, err
	}
	return holder.Children[0], nil
}

// value reads an ax:value element's text.
func (s *scanner) value() (*tree.Node, error) {
	parent := s.name
	for {
		tok, err := s.next()
		switch {
		case err != nil:
			return nil, err
		case tok == tokText:
			continue
		case tok != tokEnd:
			return nil, fmt.Errorf("unexpected token inside %s", elemValue)
		case !bytes.Equal(s.name, parent):
			return nil, fmt.Errorf("element <%s> closed by </%s>", parent, s.name)
		}
		v := tree.NewValue(string(s.text))
		s.text = s.text[:0]
		return v, nil
	}
}

// attr is the decoded value of the current start tag's attribute name
// ("" when absent); of repeated attributes the last counts.
func (s *scanner) attr(name string) string {
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if a := s.attrs[i]; string(a.name) == name {
			return string(s.vals[a.lo:a.hi])
		}
	}
	return ""
}

// next reads the next token: a start tag, an end tag, character data
// (appended to s.text) or the end of the input. Comments and processing
// instructions are skipped.
func (s *scanner) next() (tok token, err error) {
	if s.selfClosed {
		s.selfClosed = false
		return tokEnd, nil
	}
	for s.pos < len(s.data) {
		rest := s.data[s.pos:]
		if rest[0] != '<' {
			end := bytes.IndexByte(rest, '<')
			if end < 0 {
				end = len(rest)
			}
			if bytes.Contains(rest[:end], []byte("]]>")) {
				return 0, errors.New("unescaped ]]> not in CDATA section")
			}
			s.text, err = appendChars(s.text, rest[:end], true)
			s.pos += end
			return tokText, err
		}
		switch {
		case hasPrefix(rest, "<!--"):
			end := bytes.Index(rest[4:], []byte("--"))
			if end < 0 || 4+end+2 >= len(rest) || rest[4+end+2] != '>' {
				return 0, errors.New(`comment not closed by the first "--"`)
			}
			s.pos += 4 + end + 3
		case hasPrefix(rest, "<![CDATA["):
			end := bytes.Index(rest[9:], []byte("]]>"))
			if end < 0 {
				return 0, errors.New("unexpected EOF in CDATA section")
			}
			s.text, err = appendChars(s.text, rest[9:9+end], false)
			s.pos += 9 + end + 3
			return tokText, err
		case hasPrefix(rest, "<!"):
			return 0, errors.New("a DOCTYPE or other directive is outside the wire format")
		case hasPrefix(rest, "<?"):
			end := bytes.Index(rest[2:], []byte("?>"))
			if end < 0 {
				return 0, errors.New("unexpected EOF in processing instruction")
			}
			s.pos += 2 + end + 2
		case hasPrefix(rest, "</"):
			return tokEnd, s.endTag()
		default:
			s.tag = s.pos
			return tokStart, s.startTag()
		}
	}
	return tokEOF, nil
}

func (s *scanner) startTag() (err error) {
	data := s.data
	i := nameEnd(data, s.pos+1)
	if i == s.pos+1 {
		return errors.New("expected element name after <")
	}
	s.name, s.attrs, s.vals = data[s.pos+1:i], s.attrs[:0], s.vals[:0]
	for {
		i = skipSpace(data, i)
		switch {
		case i >= len(data):
			return fmt.Errorf("unexpected EOF in <%s>", s.name)
		case data[i] == '>':
			s.pos = i + 1
			return nil
		case hasPrefix(data[i:], "/>"):
			s.pos, s.selfClosed = i+2, true
			return nil
		}
		j := nameEnd(data, i)
		name := data[i:j]
		switch {
		case j == i || !utf8.Valid(name):
			return fmt.Errorf("expected attribute name in <%s>", s.name)
		case string(name) == "xmlns" || bytes.IndexByte(name, ':') >= 0:
			return fmt.Errorf("attribute %s: namespace declarations and prefixes are outside the wire format", name)
		}
		eq := skipSpace(data, j)
		if i = skipSpace(data, eq+1); eq >= len(data) || data[eq] != '=' || i >= len(data) || data[i] != '"' && data[i] != '\'' {
			return fmt.Errorf("attribute %s without =\"value\"", name)
		}
		end := bytes.IndexByte(data[i+1:], data[i])
		if end < 0 || bytes.IndexByte(data[i+1:i+1+end], '<') >= 0 {
			return fmt.Errorf("attribute %s: unterminated value, or < inside it", name)
		}
		lo := len(s.vals)
		if s.vals, err = appendChars(s.vals, data[i+1:i+1+end], true); err != nil {
			return err
		}
		s.attrs = append(s.attrs, wireAttr{name: name, lo: lo, hi: len(s.vals)})
		i += end + 2
	}
}

func (s *scanner) endTag() error {
	data := s.data
	i := nameEnd(data, s.pos+2)
	if i == s.pos+2 {
		return errors.New("expected element name after </")
	}
	s.name = data[s.pos+2 : i]
	if i = skipSpace(data, i); i >= len(data) || data[i] != '>' {
		return fmt.Errorf("invalid characters between </%s and >", s.name)
	}
	s.pos = i + 1
	return nil
}

// nameEnd returns where the name starting at data[i] ends, reading name
// bytes as encoding/xml does; the caller checks the name itself.
func nameEnd(data []byte, i int) int {
	for ; i < len(data); i++ {
		c := data[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf) {
			break
		}
	}
	return i
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

func hasPrefix(b []byte, p string) bool {
	return len(b) >= len(p) && string(b[:len(p)]) == p
}

// appendChars appends raw character data to dst as XML reads it: \r\n
// and a lone \r become \n, every character must be in XML 1.0's range
// and, when refs is set, entity and character references are replaced.
func appendChars(dst, raw []byte, refs bool) ([]byte, error) {
	last := 0
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\r':
			dst = append(append(dst, raw[last:i]...), '\n')
			if i++; i < len(raw) && raw[i] == '\n' {
				i++
			}
			last = i
		case c == '&' && refs:
			r, n := charRef(raw[i:])
			if n == 0 {
				end := min(i+12, len(raw))
				return dst, fmt.Errorf("invalid character entity %q", raw[i:end])
			}
			dst = utf8.AppendRune(append(dst, raw[last:i]...), r)
			i += n
			last = i
		case c < utf8.RuneSelf:
			if c < 0x20 && c != '\t' && c != '\n' {
				return dst, fmt.Errorf("illegal character code %U", rune(c))
			}
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && n == 1 {
				return dst, errors.New("invalid UTF-8")
			}
			if !inXMLRange(r) {
				return dst, fmt.Errorf("illegal character code %U", r)
			}
			i += n
		}
	}
	return append(dst, raw[last:]...), nil
}

// charRef decodes the reference "&...;" at the start of b: one of the
// five predefined entities or a character reference. It returns the
// rune and the reference's length, or length 0 when b does not start
// with one XML reads without a DTD. A surrogate code point reads as
// U+FFFD, as encoding/xml reads it.
func charRef(b []byte) (rune, int) {
	for _, e := range [...]struct {
		ref string
		r   rune
	}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
		if hasPrefix(b, e.ref) {
			return e.r, len(e.ref)
		}
	}
	if !hasPrefix(b, "&#") {
		return 0, 0
	}
	i, base := 2, 10
	if hasPrefix(b[i:], "x") {
		i, base = 3, 16
	}
	semi := bytes.IndexByte(b, ';')
	if semi < i {
		return 0, 0
	}
	u, err := strconv.ParseUint(string(b[i:semi]), base, 32)
	if err != nil || u > unicode.MaxRune {
		return 0, 0
	}
	n := rune(u)
	if 0xD800 <= n && n <= 0xDFFF {
		n = utf8.RuneError
	}
	if !inXMLRange(n) {
		return 0, 0
	}
	return n, semi + 1
}
