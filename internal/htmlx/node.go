// Package htmlx implements the HTML substrate Kaleidoscope's aggregator and
// replay engine are built on: a tokenizer, a forgiving tree parser, a DOM
// with query helpers, and a serializer. It is deliberately a subset of the
// full HTML5 algorithm — enough to parse, transform, and re-emit the pages
// the webgen package produces and real-world-shaped markup, while remaining
// dependency-free.
package htmlx

import (
	"strings"
)

// NodeType discriminates DOM node kinds.
type NodeType int

// Node kinds. Enums start at 1 so the zero value is invalid (and caught).
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	TextNode
	CommentNode
	DoctypeNode
)

// String returns a debug name for the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case DoctypeNode:
		return "doctype"
	default:
		return "invalid"
	}
}

// Attr is a single element attribute.
type Attr struct {
	Key, Val string
}

// Node is a DOM node. Element nodes use Tag and Attrs; text, comment, and
// doctype nodes carry their payload in Data.
type Node struct {
	Type     NodeType
	Tag      string // lower-case tag name for elements
	Data     string // text/comment/doctype payload
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// NewDocument returns an empty document node.
func NewDocument() *Node {
	return &Node{Type: DocumentNode}
}

// NewElement returns a detached element with the given tag (lower-cased).
func NewElement(tag string) *Node {
	return &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
}

// NewText returns a detached text node.
func NewText(text string) *Node {
	return &Node{Type: TextNode, Data: text}
}

// AppendChild attaches child as the last child of n, detaching it from any
// previous parent first.
func (n *Node) AppendChild(child *Node) {
	if child.Parent != nil {
		child.Parent.RemoveChild(child)
	}
	child.Parent = n
	n.Children = append(n.Children, child)
}

// InsertChildAt inserts child at index i among n's children (clamped to the
// valid range), detaching it from any previous parent first.
func (n *Node) InsertChildAt(i int, child *Node) {
	if child.Parent != nil {
		child.Parent.RemoveChild(child)
	}
	if i < 0 {
		i = 0
	}
	if i > len(n.Children) {
		i = len(n.Children)
	}
	child.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = child
}

// RemoveChild detaches child from n. It is a no-op when child is not one of
// n's children.
func (n *Node) RemoveChild(child *Node) {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			child.Parent = nil
			return
		}
	}
}

// Attr returns the value of the named attribute and whether it is present.
// Lookup is case-insensitive on the key, matching HTML semantics.
func (n *Node) Attr(key string) (string, bool) {
	key = strings.ToLower(key)
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute value or def when absent.
func (n *Node) AttrOr(key, def string) string {
	if v, ok := n.Attr(key); ok {
		return v
	}
	return def
}

// SetAttr sets (or replaces) the named attribute.
func (n *Node) SetAttr(key, val string) {
	key = strings.ToLower(key)
	for i, a := range n.Attrs {
		if a.Key == key {
			n.Attrs[i].Val = val
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Key: key, Val: val})
}

// RemoveAttr deletes the named attribute if present.
func (n *Node) RemoveAttr(key string) {
	key = strings.ToLower(key)
	for i, a := range n.Attrs {
		if a.Key == key {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

// ID returns the element's id attribute (empty when absent).
func (n *Node) ID() string { return n.AttrOr("id", "") }

// Classes returns the element's class list.
func (n *Node) Classes() []string {
	raw, ok := n.Attr("class")
	if !ok {
		return nil
	}
	return strings.Fields(raw)
}

// HasClass reports whether the element's class list contains c.
func (n *Node) HasClass(c string) bool {
	for _, have := range n.Classes() {
		if have == c {
			return true
		}
	}
	return false
}

// Walk visits n and every descendant in document (pre-)order. Returning
// false from fn prunes the subtree below the current node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Text returns the concatenated text content of the subtree, excluding
// script and style payloads.
func (n *Node) Text() string {
	var b strings.Builder
	n.Walk(func(node *Node) bool {
		if node.Type == ElementNode && (node.Tag == "script" || node.Tag == "style") {
			return false
		}
		if node.Type == TextNode {
			b.WriteString(node.Data)
		}
		return true
	})
	return b.String()
}

// Find returns the first node in document order satisfying pred, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(node *Node) bool {
		if found != nil {
			return false
		}
		if pred(node) {
			found = node
			return false
		}
		return true
	})
	return found
}

// FindAll returns every node in document order satisfying pred.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(node *Node) bool {
		if pred(node) {
			out = append(out, node)
		}
		return true
	})
	return out
}

// ByID returns the first element with the given id, or nil.
func (n *Node) ByID(id string) *Node {
	return n.Find(func(node *Node) bool {
		return node.Type == ElementNode && node.ID() == id
	})
}

// ByTag returns all elements with the given tag name.
func (n *Node) ByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	return n.FindAll(func(node *Node) bool {
		return node.Type == ElementNode && node.Tag == tag
	})
}

// ByClass returns all elements carrying the given class.
func (n *Node) ByClass(class string) []*Node {
	return n.FindAll(func(node *Node) bool {
		return node.Type == ElementNode && node.HasClass(class)
	})
}

// Elements returns every element in the subtree, in document order.
func (n *Node) Elements() []*Node {
	return n.FindAll(func(node *Node) bool { return node.Type == ElementNode })
}

// Clone returns a deep copy of the subtree rooted at n; the copy is
// detached (nil Parent).
func (n *Node) Clone() *Node {
	cp := &Node{Type: n.Type, Tag: n.Tag, Data: n.Data}
	if n.Attrs != nil {
		cp.Attrs = append([]Attr(nil), n.Attrs...)
	}
	for _, c := range n.Children {
		cc := c.Clone()
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// Body returns the document's <body> element, or nil.
func (n *Node) Body() *Node {
	bodies := n.ByTag("body")
	if len(bodies) == 0 {
		return nil
	}
	return bodies[0]
}

// Head returns the document's <head> element, or nil.
func (n *Node) Head() *Node {
	heads := n.ByTag("head")
	if len(heads) == 0 {
		return nil
	}
	return heads[0]
}

// voidElements never have children or end tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// IsVoid reports whether tag is an HTML void element.
func IsVoid(tag string) bool { return voidElements[strings.ToLower(tag)] }

// rawTextElements hold raw text until their matching close tag.
var rawTextElements = map[string]bool{
	"script": true, "style": true, "textarea": true, "title": true,
}
