package htmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleDocument(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><html><head><title>Hi</title></head><body><p id="x">hello</p></body></html>`)
	if len(doc.Children) != 2 {
		t.Fatalf("document children = %d, want 2 (doctype + html)", len(doc.Children))
	}
	if doc.Children[0].Type != DoctypeNode || doc.Children[0].Data != "DOCTYPE html" {
		t.Errorf("doctype = %+v", doc.Children[0])
	}
	p := doc.ByID("x")
	if p == nil {
		t.Fatal("ByID(x) = nil")
	}
	if p.Tag != "p" || p.Text() != "hello" {
		t.Errorf("p = %q %q", p.Tag, p.Text())
	}
	if doc.Body() == nil || doc.Head() == nil {
		t.Error("Body/Head should be found")
	}
	title := doc.ByTag("title")
	if len(title) != 1 || title[0].Text() != "Hi" {
		t.Errorf("title = %+v", title)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := Parse(`<div class="a b" data-x='single' checked width=100 empty="">x</div>`)
	div := doc.ByTag("div")[0]
	tests := []struct {
		key, want string
		present   bool
	}{
		{"class", "a b", true},
		{"data-x", "single", true},
		{"checked", "", true},
		{"width", "100", true},
		{"empty", "", true},
		{"missing", "", false},
	}
	for _, tt := range tests {
		got, ok := div.Attr(tt.key)
		if ok != tt.present || got != tt.want {
			t.Errorf("Attr(%q) = %q,%v want %q,%v", tt.key, got, ok, tt.want, tt.present)
		}
	}
	if !div.HasClass("a") || !div.HasClass("b") || div.HasClass("c") {
		t.Errorf("classes = %v", div.Classes())
	}
}

func TestParseCaseInsensitiveTagsAndAttrs(t *testing.T) {
	doc := Parse(`<DIV ID="Upper">x</DIV>`)
	div := doc.ByTag("div")
	if len(div) != 1 {
		t.Fatalf("expected lower-cased tag match, got %d", len(div))
	}
	if v, ok := div[0].Attr("Id"); !ok || v != "Upper" {
		t.Errorf("case-insensitive attr = %q,%v", v, ok)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<body><img src="a.png"><br><p>after</p></body>`)
	body := doc.Body()
	if len(body.Children) != 3 {
		t.Fatalf("body children = %d, want 3", len(body.Children))
	}
	img := body.Children[0]
	if img.Tag != "img" || len(img.Children) != 0 {
		t.Errorf("img parsed wrong: %+v", img)
	}
	if body.Children[2].Tag != "p" {
		t.Errorf("p should be sibling of img, got %+v", body.Children[2])
	}
}

func TestParseSelfClosing(t *testing.T) {
	doc := Parse(`<div><custom-el attr="1"/><span>in</span></div>`)
	div := doc.ByTag("div")[0]
	if len(div.Children) != 2 {
		t.Fatalf("div children = %d, want 2", len(div.Children))
	}
	if div.Children[0].Tag != "custom-el" {
		t.Errorf("first child = %q", div.Children[0].Tag)
	}
}

func TestParseRawText(t *testing.T) {
	src := `<script>if (a < b && c > d) { alert("<p>not a tag</p>"); }</script>`
	doc := Parse(src)
	script := doc.ByTag("script")[0]
	want := `if (a < b && c > d) { alert("<p>not a tag</p>"); }`
	if got := script.Children[0].Data; got != want {
		t.Errorf("script raw = %q, want %q", got, want)
	}
	// Style too.
	doc = Parse(`<style>p > a { color: red; }</style>`)
	style := doc.ByTag("style")[0]
	if got := style.Children[0].Data; got != "p > a { color: red; }" {
		t.Errorf("style raw = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	doc := Parse(`<!-- a comment --><div><!-- inner --></div>`)
	if doc.Children[0].Type != CommentNode || doc.Children[0].Data != " a comment " {
		t.Errorf("comment = %+v", doc.Children[0])
	}
	div := doc.ByTag("div")[0]
	if len(div.Children) != 1 || div.Children[0].Type != CommentNode {
		t.Errorf("inner comment missing: %+v", div.Children)
	}
}

func TestParseImpliedEndTags(t *testing.T) {
	doc := Parse(`<ul><li>one<li>two<li>three</ul>`)
	lis := doc.ByTag("li")
	if len(lis) != 3 {
		t.Fatalf("li count = %d, want 3", len(lis))
	}
	for i, li := range lis {
		if li.Parent.Tag != "ul" {
			t.Errorf("li[%d] parent = %q, want ul", i, li.Parent.Tag)
		}
	}
	doc = Parse(`<p>first<p>second`)
	ps := doc.ByTag("p")
	if len(ps) != 2 {
		t.Fatalf("p count = %d, want 2", len(ps))
	}
	if strings.TrimSpace(ps[0].Text()) != "first" {
		t.Errorf("p[0] text = %q", ps[0].Text())
	}
}

func TestParseStrayEndTagsAndUnclosed(t *testing.T) {
	doc := Parse(`</div><span>text`)
	spans := doc.ByTag("span")
	if len(spans) != 1 || spans[0].Text() != "text" {
		t.Errorf("unclosed span = %+v", spans)
	}
	if len(doc.ByTag("div")) != 0 {
		t.Error("stray end tag should not create an element")
	}
}

func TestParseMalformedMarkupIsText(t *testing.T) {
	doc := Parse(`a < b and <> and <3`)
	text := doc.Text()
	if !strings.Contains(text, "a < b") || !strings.Contains(text, "<3") {
		t.Errorf("malformed markup should degrade to text, got %q", text)
	}
}

func TestEntities(t *testing.T) {
	doc := Parse(`<p title="a &amp; b">x &lt;y&gt; &quot;z&quot; &nbsp;</p>`)
	p := doc.ByTag("p")[0]
	if v, _ := p.Attr("title"); v != "a & b" {
		t.Errorf("attr entity = %q", v)
	}
	if got := p.Text(); got != "x <y> \"z\"  " {
		t.Errorf("text entity = %q", got)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	src := `<!DOCTYPE html><html><head><title>T</title><style>p{color:red}</style></head><body><div id="main" class="a"><p>hi &amp; bye</p><img src="x.png"></div><script>let a = 1 < 2;</script></body></html>`
	doc := Parse(src)
	out := Render(doc)
	doc2 := Parse(out)
	out2 := Render(doc2)
	if out != out2 {
		t.Errorf("render not stable:\n1: %s\n2: %s", out, out2)
	}
	if doc2.ByID("main") == nil {
		t.Error("round trip lost #main")
	}
	if got := doc2.ByTag("script")[0].Children[0].Data; got != "let a = 1 < 2;" {
		t.Errorf("script content = %q", got)
	}
}

func TestRenderEscaping(t *testing.T) {
	el := NewElement("p")
	el.SetAttr("title", `a"b<c`)
	el.AppendChild(NewText("1 < 2 & 3 > 2"))
	got := Render(el)
	want := `<p title="a&quot;b&lt;c">1 &lt; 2 &amp; 3 &gt; 2</p>`
	if got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
}

func TestNodeManipulation(t *testing.T) {
	parent := NewElement("div")
	a := NewElement("a")
	b := NewElement("b")
	c := NewElement("c")
	parent.AppendChild(a)
	parent.AppendChild(c)
	parent.InsertChildAt(1, b)
	tags := make([]string, 0, 3)
	for _, ch := range parent.Children {
		tags = append(tags, ch.Tag)
	}
	if strings.Join(tags, "") != "abc" {
		t.Errorf("order = %v", tags)
	}
	// Reparenting detaches from the old parent.
	other := NewElement("section")
	other.AppendChild(b)
	if len(parent.Children) != 2 || b.Parent != other {
		t.Errorf("reparent failed: %d children, parent %v", len(parent.Children), b.Parent)
	}
	parent.RemoveChild(a)
	if len(parent.Children) != 1 || a.Parent != nil {
		t.Errorf("remove failed")
	}
	// Removing a non-child is a no-op.
	parent.RemoveChild(a)
	if len(parent.Children) != 1 {
		t.Error("removing non-child should be no-op")
	}
	// InsertChildAt clamps.
	parent.InsertChildAt(-5, a)
	if parent.Children[0] != a {
		t.Error("negative index should clamp to 0")
	}
	parent.InsertChildAt(99, b)
	if parent.Children[len(parent.Children)-1] != b {
		t.Error("large index should clamp to end")
	}
}

func TestSetRemoveAttr(t *testing.T) {
	el := NewElement("div")
	el.SetAttr("ID", "one")
	if el.ID() != "one" {
		t.Errorf("ID = %q", el.ID())
	}
	el.SetAttr("id", "two")
	if el.ID() != "two" || len(el.Attrs) != 1 {
		t.Errorf("SetAttr should replace: %+v", el.Attrs)
	}
	el.RemoveAttr("id")
	if _, ok := el.Attr("id"); ok {
		t.Error("RemoveAttr failed")
	}
	el.RemoveAttr("id") // no-op
	if el.AttrOr("x", "def") != "def" {
		t.Error("AttrOr default")
	}
}

func TestClone(t *testing.T) {
	doc := Parse(`<div id="root"><p class="c">text</p></div>`)
	root := doc.ByID("root")
	cp := root.Clone()
	if cp.Parent != nil {
		t.Error("clone should be detached")
	}
	cp.ByClass("c")[0].SetAttr("class", "changed")
	if root.ByClass("c") == nil || len(root.ByClass("c")) != 1 {
		t.Error("mutating clone affected original")
	}
	if Render(cp) == Render(root) {
		t.Error("clone should differ after mutation")
	}
}

func TestWalkPrune(t *testing.T) {
	doc := Parse(`<div><section><p>deep</p></section><span>s</span></div>`)
	var visited []string
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			visited = append(visited, n.Tag)
			return n.Tag != "section" // prune below section
		}
		return true
	})
	want := "div section span"
	if got := strings.Join(visited, " "); got != want {
		t.Errorf("visited = %q, want %q", got, want)
	}
}

func TestTextExcludesScriptStyle(t *testing.T) {
	doc := Parse(`<body>visible<script>hidden()</script><style>p{}</style></body>`)
	if got := doc.Text(); got != "visible" {
		t.Errorf("Text = %q, want visible", got)
	}
}

func TestFindAll(t *testing.T) {
	doc := Parse(`<div><p>a</p><p>b</p><span>c</span></div>`)
	if got := len(doc.FindAll(func(n *Node) bool { return n.Type == TextNode })); got != 3 {
		t.Errorf("text nodes = %d, want 3", got)
	}
	if got := len(doc.Elements()); got != 4 {
		t.Errorf("elements = %d, want 4", got)
	}
	if doc.Find(func(n *Node) bool { return n.Tag == "em" }) != nil {
		t.Error("Find should return nil for no match")
	}
}

func TestIsVoid(t *testing.T) {
	if !IsVoid("IMG") || !IsVoid("br") || IsVoid("div") {
		t.Error("IsVoid misclassifies")
	}
}

func TestNodeTypeString(t *testing.T) {
	types := map[NodeType]string{
		DocumentNode: "document", ElementNode: "element", TextNode: "text",
		CommentNode: "comment", DoctypeNode: "doctype", NodeType(0): "invalid",
	}
	for typ, want := range types {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

// TestParseNeverPanicsProperty throws arbitrary bytes at the parser; it must
// never panic and must always produce a renderable tree.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(src string) bool {
		doc := Parse(src)
		_ = Render(doc)
		return doc.Type == DocumentNode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRenderParseStableProperty: parse(render(parse(s))) renders to the same
// string as render(parse(s)) — i.e. our serialization is a fixed point.
func TestRenderParseStableProperty(t *testing.T) {
	f := func(src string) bool {
		once := Render(Parse(src))
		twice := Render(Parse(once))
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRawTextInvalidUTF8 is the regression test for a fuzzer-found bug:
// case-folding the source to find a raw-text close tag shifted byte
// offsets when the content held invalid UTF-8.
func TestRawTextInvalidUTF8(t *testing.T) {
	src := "<sCript>\xff</sCript>"
	doc := Parse(src)
	script := doc.ByTag("script")
	if len(script) != 1 {
		t.Fatalf("script count = %d", len(script))
	}
	if got := script[0].Children[0].Data; got != "\xff" {
		t.Errorf("raw content = %q, want \\xff", got)
	}
	once := Render(doc)
	twice := Render(Parse(once))
	if once != twice {
		t.Errorf("not a fixed point: %q vs %q", once, twice)
	}
}

func TestAsciiIndexFold(t *testing.T) {
	tests := []struct {
		s, sub string
		want   int
	}{
		{"abcDEF", "def", 3},
		{"xx</ScRiPt>yy", "</script", 2},
		{"none here", "</script", -1},
		{"", "x", -1},
		{"anything", "", 0},
		{"\xff</script>", "</script", 1},
	}
	for _, tt := range tests {
		if got := asciiIndexFold(tt.s, tt.sub); got != tt.want {
			t.Errorf("asciiIndexFold(%q, %q) = %d, want %d", tt.s, tt.sub, got, tt.want)
		}
	}
}

func TestNumericEntities(t *testing.T) {
	doc := Parse(`<p>&#65;&#x42;&#x1F600;</p>`)
	got := doc.ByTag("p")[0].Text()
	if got != "AB\U0001F600" {
		t.Errorf("numeric entities = %q", got)
	}
	// Malformed references pass through literally.
	doc = Parse(`<p>&#; &#x; &#xZZ; &bogus; & plain</p>`)
	got = doc.ByTag("p")[0].Text()
	if got != "&#; &#x; &#xZZ; &bogus; & plain" {
		t.Errorf("malformed refs = %q", got)
	}
	// Out-of-range scalar passes through.
	doc = Parse(`<p>&#x110000;</p>`)
	if got := doc.ByTag("p")[0].Text(); got != "&#x110000;" {
		t.Errorf("out-of-range = %q", got)
	}
	// Attribute values decode numerics too.
	doc = Parse(`<p title="&#65;&amp;B">x</p>`)
	if v, _ := doc.ByTag("p")[0].Attr("title"); v != "A&B" {
		t.Errorf("attr numeric = %q", v)
	}
}

func TestEntityRoundTripStable(t *testing.T) {
	src := `<p>&#65; &amp; &#x26; text</p>`
	once := Render(Parse(src))
	twice := Render(Parse(once))
	if once != twice {
		t.Errorf("entity round trip unstable:\n1: %q\n2: %q", once, twice)
	}
}
