package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"xmlviews/internal/nodeid"
)

// ParseXML reads an XML document from r into the tree model. Element
// attributes become children labeled "@name"; character data is
// space-normalized and concatenated into the enclosing element's Value.
func ParseXML(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var doc *Document
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %v", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var n *Node
			if doc == nil {
				doc = NewDocument(t.Name.Local)
				n = doc.Root
			} else {
				if len(stack) == 0 {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				n = stack[len(stack)-1].AddChild(t.Name.Local, "")
			}
			for _, a := range t.Attr {
				n.AddChild("@"+a.Name.Local, a.Value)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			text := normalizeSpace(string(t))
			if text == "" {
				continue
			}
			top := stack[len(stack)-1]
			if top.Value == "" {
				top.Value = text
			} else {
				top.Value += " " + text
			}
		}
	}
	if doc == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unterminated document")
	}
	return doc, nil
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string) (*Document, error) { return ParseXML(strings.NewReader(s)) }

func normalizeSpace(s string) string { return strings.Join(strings.Fields(s), " ") }

// WriteXML serializes the document as XML. Children labeled "@x" are
// emitted as attributes; nodes with both value and children emit the value
// first (the model does not track finer text interleaving).
func (d *Document) WriteXML(w io.Writer) error {
	return writeNode(w, d.Root)
}

// XMLString returns the document serialized as XML.
func (d *Document) XMLString() string {
	var b strings.Builder
	_ = d.WriteXML(&b)
	return b.String()
}

func writeNode(w io.Writer, n *Node) error {
	if _, err := fmt.Fprintf(w, "<%s", n.Label); err != nil {
		return err
	}
	var elemChildren []*Node
	for _, c := range n.Children {
		if strings.HasPrefix(c.Label, "@") {
			if _, err := fmt.Fprintf(w, " %s=%q", c.Label[1:], c.Value); err != nil {
				return err
			}
		} else {
			elemChildren = append(elemChildren, c)
		}
	}
	if n.Value == "" && len(elemChildren) == 0 {
		_, err := io.WriteString(w, "/>")
		return err
	}
	if _, err := io.WriteString(w, ">"); err != nil {
		return err
	}
	if n.Value != "" {
		var esc strings.Builder
		xml.EscapeText(&esc, []byte(n.Value))
		if _, err := io.WriteString(w, esc.String()); err != nil {
			return err
		}
	}
	for _, c := range elemChildren {
		if err := writeNode(w, c); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "</%s>", n.Label)
	return err
}

// ParseParen parses the paper's parenthesized tree notation, e.g.
// `a(b "1" c(d "2" e))`: a label, an optional quoted value, and an optional
// parenthesized child list.
func ParseParen(s string) (*Document, error) {
	p := &parenParser{src: s}
	root, err := p.parseNode(nil)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("xmltree: trailing input at %d in %q", p.pos, s)
	}
	doc := &Document{Root: root}
	return doc, nil
}

// MustParseParen is ParseParen that panics on error (for tests/examples).
func MustParseParen(s string) *Document {
	d, err := ParseParen(s)
	if err != nil {
		panic(err)
	}
	return d
}

type parenParser struct {
	src string
	pos int
}

func (p *parenParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parenParser) parseNode(parent *Node) (*Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isLabelByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("xmltree: expected label at %d in %q", p.pos, p.src)
	}
	label := p.src[start:p.pos]
	var n *Node
	if parent == nil {
		n = &Node{Label: label, ID: nodeid.Root(), PathID: -1}
	} else {
		n = parent.AddChild(label, "")
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '"' {
		// The closing quote is the first one not preceded by a backslash
		// escape. Values are Go string literals, which is what Node.String
		// writes (%q), so String and ParseParen round-trip every value;
		// text that is not a valid literal (a raw newline, a stray
		// backslash) is taken verbatim.
		end := p.pos + 1
		for end < len(p.src) && p.src[end] != '"' {
			if p.src[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(p.src) {
			return nil, fmt.Errorf("xmltree: unterminated value at %d in %q", p.pos, p.src)
		}
		v, err := strconv.Unquote(p.src[p.pos : end+1])
		if err != nil {
			v = p.src[p.pos+1 : end]
		}
		n.Value = v
		p.pos = end + 1
		p.skipSpace()
	}
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			p.skipSpace()
			if p.pos < len(p.src) && p.src[p.pos] == ')' {
				p.pos++
				break
			}
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("xmltree: missing ')' in %q", p.src)
			}
			if _, err := p.parseNode(n); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

func isLabelByte(b byte) bool {
	return b == '@' || b == '_' || b == '-' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}
