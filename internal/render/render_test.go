package render

import (
	"strings"
	"testing"

	"kaleidoscope/internal/cssx"
	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/webgen"
)

func layoutHTML(t *testing.T, html, css string) (*Layout, *htmlx.Node) {
	t.Helper()
	doc := htmlx.Parse(html)
	sheet := cssx.ParseStylesheet(css)
	return LayoutDocument(doc, sheet, DefaultViewport()), doc
}

func TestBlocksStackVertically(t *testing.T) {
	l, doc := layoutHTML(t, `<body><p id="a">`+strings.Repeat("x ", 100)+`</p><p id="b">y</p></body>`, "")
	a := l.Geom[doc.ByID("a")]
	b := l.Geom[doc.ByID("b")]
	if a.Box.Y >= b.Box.Y {
		t.Errorf("a.Y=%v should be above b.Y=%v", a.Box.Y, b.Box.Y)
	}
	if b.Box.Y < a.Box.Y+a.Box.H {
		t.Errorf("b starts at %v before a ends at %v", b.Box.Y, a.Box.Y+a.Box.H)
	}
	if l.TotalHeight <= 0 {
		t.Error("document should have height")
	}
}

func TestLargerFontConsumesMoreSpace(t *testing.T) {
	text := strings.Repeat("word ", 400)
	small, docS := layoutHTML(t, `<body><p id="t">`+text+`</p></body>`, "p { font-size: 10pt; }")
	large, docL := layoutHTML(t, `<body><p id="t">`+text+`</p></body>`, "p { font-size: 22pt; }")
	hs := small.Geom[docS.ByID("t")].Box.H
	hl := large.Geom[docL.ByID("t")].Box.H
	if hl <= hs {
		t.Errorf("22pt height %v should exceed 10pt height %v", hl, hs)
	}
	// Area grows too.
	if large.TotalOwnArea <= small.TotalOwnArea {
		t.Errorf("22pt area %v should exceed 10pt area %v", large.TotalOwnArea, small.TotalOwnArea)
	}
}

func TestImageGeometry(t *testing.T) {
	l, doc := layoutHTML(t, `<body><img id="i" src="x.png" width="320" height="200"></body>`, "")
	g := l.Geom[doc.ByID("i")]
	if g.Box.W != 320 || g.Box.H != 200 {
		t.Errorf("img box = %+v", g.Box)
	}
	if g.OwnArea != 320*200 {
		t.Errorf("img own area = %v, want 64000", g.OwnArea)
	}
}

func TestImageDefaultsAndClamping(t *testing.T) {
	l, doc := layoutHTML(t, `<body><img id="i" src="x.png" width="99999"></body>`, "")
	g := l.Geom[doc.ByID("i")]
	if g.Box.W != DefaultViewport().Width {
		t.Errorf("oversized img should clamp to viewport, got %v", g.Box.W)
	}
	if g.Box.H != defaultImgH {
		t.Errorf("missing height should default, got %v", g.Box.H)
	}
	l, doc = layoutHTML(t, `<body><img id="j" src="y.png" width="bogus" height="-5"></body>`, "")
	g = l.Geom[doc.ByID("j")]
	if g.Box.H != defaultImgH {
		t.Errorf("invalid attrs should default, got %+v", g.Box)
	}
}

func TestDisplayNone(t *testing.T) {
	l, doc := layoutHTML(t, `<body><div id="gone">`+strings.Repeat("x", 500)+`</div><p id="after">y</p></body>`, "#gone { display: none; }")
	g := l.Geom[doc.ByID("gone")]
	if g.Box.H != 0 || g.OwnArea != 0 {
		t.Errorf("display:none should collapse, got %+v", g)
	}
	after := l.Geom[doc.ByID("after")]
	if after.Box.Y != 0 {
		t.Errorf("content after display:none should not be pushed down, Y=%v", after.Box.Y)
	}
}

func TestInlineElementsShareParentBlock(t *testing.T) {
	l, doc := layoutHTML(t, `<body><p id="p">before <a id="link" href="#">anchor text</a> after</p></body>`, "")
	link := doc.ByID("link")
	g, ok := l.Geom[link]
	if !ok {
		t.Fatal("inline element should have a geometry entry")
	}
	if g.OwnArea != 0 {
		t.Errorf("inline element own area = %v, want 0 (text counts in parent)", g.OwnArea)
	}
	p := l.Geom[doc.ByID("p")]
	if p.OwnArea == 0 {
		t.Error("parent block should own the inline text area")
	}
	if g.Box.Y != p.Box.Y {
		t.Errorf("inline anchored at parent origin: %v vs %v", g.Box.Y, p.Box.Y)
	}
}

func TestScriptsAndHeadSkipped(t *testing.T) {
	l, _ := layoutHTML(t, `<html><head><title>long title text</title></head><body><script>var x = "`+strings.Repeat("s", 1000)+`";</script><p>p</p></body></html>`, "")
	// Only body content should contribute area; the script must not.
	if l.TotalOwnArea > 2000 {
		t.Errorf("script/head text leaked into layout: area=%v", l.TotalOwnArea)
	}
}

func TestAboveTheFold(t *testing.T) {
	// Build a page taller than the viewport: many paragraphs.
	var b strings.Builder
	b.WriteString("<body>")
	for i := 0; i < 40; i++ {
		b.WriteString(`<p id="p` + string(rune('a'+i%26)) + strings.Repeat("q", i/26+1) + `">` + strings.Repeat("text ", 60) + `</p>`)
	}
	b.WriteString("</body>")
	l, doc := layoutHTML(t, b.String(), "")
	if l.TotalHeight <= l.Viewport.Height {
		t.Fatalf("page should overflow viewport: %v <= %v", l.TotalHeight, l.Viewport.Height)
	}
	ps := doc.ByTag("p")
	if l.Geom[ps[0]].OwnAreaATF <= 0 {
		t.Error("first paragraph should paint above the fold")
	}
	if a := l.Geom[ps[len(ps)-1]].OwnAreaATF; a != 0 {
		t.Errorf("last paragraph should be below the fold, painted %v above it", a)
	}
	if l.TotalOwnAreaATF <= 0 || l.TotalOwnAreaATF >= l.TotalOwnArea {
		t.Errorf("above-the-fold area = %v of %v, want a proper fraction", l.TotalOwnAreaATF, l.TotalOwnArea)
	}
}

func TestOwnAreaPartialFold(t *testing.T) {
	// A single huge block straddling the fold: its ATF area must be a
	// proper fraction.
	l, doc := layoutHTML(t, `<body><p id="big">`+strings.Repeat("w ", 3000)+`</p></body>`, "p { font-size: 20px; }")
	g := l.Geom[doc.ByID("big")]
	if g.Box.H <= l.Viewport.Height {
		t.Fatalf("block should straddle the fold, H=%v", g.Box.H)
	}
	if g.OwnAreaATF <= 0 || g.OwnAreaATF >= g.OwnArea {
		t.Errorf("ATF area = %v of %v, want proper fraction", g.OwnAreaATF, g.OwnArea)
	}
}

// TestWikiLayoutShape checks the experiment-relevant property: the nav bar
// is above the fold, the references are below it on the default article.
func TestWikiLayoutShape(t *testing.T) {
	site := webgen.WikiArticle(webgen.WikiConfig{Seed: 42})
	doc := htmlx.Parse(string(site.HTML()))
	css, _ := site.Get("css/style.css")
	sheet := cssx.ParseStylesheet(string(css))
	l := LayoutDocument(doc, sheet, DefaultViewport())

	nav := doc.ByID("navbar")
	refs := doc.ByID("references")
	if l.Geom[nav].Box.Y >= l.Viewport.Height {
		t.Error("navbar should be above the fold")
	}
	if l.Geom[refs].Box.Y < l.Viewport.Height {
		t.Errorf("references should be below the fold (Y=%v, fold=%v)", l.Geom[refs].Box.Y, l.Viewport.Height)
	}
	if nav.Parent == nil || l.Geom[nav].Box.Y >= l.Geom[doc.ByID("content")].Box.Y {
		t.Error("navbar should be laid out before content")
	}
	if l.TotalHeight < 2*l.Viewport.Height {
		t.Errorf("article should be several screens tall, got %v", l.TotalHeight)
	}
}

func TestLineHeightParsing(t *testing.T) {
	tests := []struct {
		css   string
		wantH float64
	}{
		{"p { font-size: 20px; line-height: 2; }", 40},
		{"p { font-size: 20px; line-height: 30px; }", 30},
		{"p { font-size: 20px; }", 28}, // default 1.4
	}
	for _, tt := range tests {
		l, doc := layoutHTML(t, `<body><p id="t">short</p></body>`, tt.css)
		g := l.Geom[doc.ByID("t")]
		// One line of text + block padding.
		want := tt.wantH + blockPaddingPx
		if g.Box.H != want {
			t.Errorf("css %q: height = %v, want %v", tt.css, g.Box.H, want)
		}
	}
}

func TestEmptyDocument(t *testing.T) {
	l, _ := layoutHTML(t, ``, "")
	if l.TotalHeight != 0 || l.TotalOwnArea != 0 {
		t.Errorf("empty doc layout = %+v", l)
	}
	if l.TotalOwnAreaATF != 0 {
		t.Error("empty doc should paint nothing above the fold")
	}
}

func TestNoBodyFallsBackToDocument(t *testing.T) {
	doc := htmlx.Parse(`<div id="d">text content here</div>`)
	l := LayoutDocument(doc, nil, DefaultViewport())
	if _, ok := l.Geom[doc.ByID("d")]; !ok {
		t.Error("layout without <body> should still process elements")
	}
}

func TestClipAreaToFold(t *testing.T) {
	tests := []struct {
		name             string
		area, y, h, fold float64
		want             float64
	}{
		{"fully above", 100, 0, 50, 768, 100},
		{"fully below", 100, 800, 50, 768, 0},
		{"half", 100, 718, 100, 768, 50},
		{"zero height above", 100, 10, 0, 768, 100},
		{"zero height below", 100, 800, 0, 768, 0},
	}
	for _, tt := range tests {
		if got := clipAreaToFold(tt.area, tt.y, tt.h, tt.fold); got != tt.want {
			t.Errorf("%s: clip = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestOwnAreaSumMatchesTotal(t *testing.T) {
	site := webgen.WikiArticle(webgen.WikiConfig{Seed: 7})
	doc := htmlx.Parse(string(site.HTML()))
	l := LayoutDocument(doc, nil, DefaultViewport())
	var sum float64
	for _, g := range l.Geom {
		sum += g.OwnArea
	}
	if diff := sum - l.TotalOwnArea; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sum of own areas %v != total %v", sum, l.TotalOwnArea)
	}
}

// TestSiblingBlocksDisjoint: in normal flow, sibling block boxes never
// overlap vertically — the geometric invariant visual-completeness
// accounting relies on.
func TestSiblingBlocksDisjoint(t *testing.T) {
	site := webgen.WikiArticle(webgen.WikiConfig{Seed: 13})
	doc := htmlx.Parse(string(site.HTML()))
	l := LayoutDocument(doc, nil, DefaultViewport())
	var check func(n *htmlx.Node)
	check = func(n *htmlx.Node) {
		var prev *htmlx.Node
		for _, c := range n.Children {
			if c.Type != htmlx.ElementNode || !IsBlock(c.Tag) {
				continue
			}
			if prev != nil {
				a := l.Geom[prev].Box
				b := l.Geom[c].Box
				if b.Y < a.Y+a.H-1e-9 {
					t.Fatalf("siblings overlap: %s [%v,%v] then %s at %v",
						prev.Tag, a.Y, a.Y+a.H, c.Tag, b.Y)
				}
			}
			prev = c
			check(c)
		}
	}
	if body := doc.Body(); body != nil {
		check(body)
	}
}
