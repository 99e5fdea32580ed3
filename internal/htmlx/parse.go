package htmlx

import (
	"strings"
)

// impliedEndTags maps a tag to the set of open tags it implicitly closes.
// This captures the handful of HTML auto-closing rules that matter for
// real-world-shaped markup without implementing the full tree-construction
// algorithm.
var impliedEndTags = map[string]map[string]bool{
	"li": {"li": true},
	"dt": {"dt": true, "dd": true},
	"dd": {"dt": true, "dd": true},
	"tr": {"tr": true, "td": true, "th": true},
	"td": {"td": true, "th": true},
	"th": {"td": true, "th": true},
	"p":  {"p": true},
	"option": {
		"option": true,
	},
}

// Parse parses HTML source into a document tree. It never fails: malformed
// markup is handled forgivingly (unclosed tags are closed at EOF, stray end
// tags are dropped), matching the behaviour Kaleidoscope needs when
// ingesting saved webpages.
func Parse(src string) *Node {
	doc := NewDocument()
	z := newTokenizer(src)
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	for {
		tok, ok := z.next()
		if !ok {
			break
		}
		switch tok.typ {
		case tokenText:
			data := unescapeEntities(tok.data)
			top().AppendChild(NewText(data))
		case tokenComment:
			top().AppendChild(&Node{Type: CommentNode, Data: tok.data})
		case tokenDoctype:
			top().AppendChild(&Node{Type: DoctypeNode, Data: tok.data})
		case tokenSelfClosingTag, tokenStartTag:
			// Apply implied end-tag rules (e.g. <li> closes an open <li>),
			// to <li/> too: it is rendered <li></li> and must parse back so.
			if closes, ok := impliedEndTags[tok.tag]; ok {
				if len(stack) > 1 && closes[top().Tag] {
					stack = stack[:len(stack)-1]
				}
			}
			el := &Node{Type: ElementNode, Tag: tok.tag, Attrs: tok.attrs}
			top().AppendChild(el)
			if tok.typ == tokenSelfClosingTag || IsVoid(tok.tag) {
				continue
			}
			if rawTextElements[tok.tag] {
				raw := z.rawText(tok.tag)
				if raw != "" {
					el.AppendChild(NewText(raw))
				}
				continue
			}
			stack = append(stack, el)
		case tokenEndTag:
			// Find the nearest matching open element; if none, drop the
			// stray end tag.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == tok.tag {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}

// Render serializes the tree rooted at n back to HTML.
func Render(n *Node) string {
	var b strings.Builder
	render(&b, n)
	return b.String()
}

func render(b *strings.Builder, n *Node) {
	switch n.Type {
	case DocumentNode:
		for _, c := range n.Children {
			render(b, c)
		}
	case DoctypeNode:
		b.WriteString("<!")
		b.WriteString(n.Data)
		b.WriteString(">")
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case TextNode:
		if n.Parent != nil && n.Parent.Type == ElementNode && rawTextElements[n.Parent.Tag] {
			// Raw-text content (script/style) is emitted verbatim.
			b.WriteString(n.Data)
			return
		}
		b.WriteString(textEscaper.Replace(n.Data))
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			if a.Val != "" {
				b.WriteString(`="`)
				b.WriteString(attrEscaper.Replace(a.Val))
				b.WriteByte('"')
			}
		}
		if IsVoid(n.Tag) {
			b.WriteString(">")
			return
		}
		b.WriteByte('>')
		for _, c := range n.Children {
			render(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteByte('>')
	}
}
