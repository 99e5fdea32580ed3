package webgen

import (
	"bytes"
	"strings"
	"testing"

	"kaleidoscope/internal/cssx"
	"kaleidoscope/internal/htmlx"
)

func TestWikiArticleStructure(t *testing.T) {
	site := WikiArticle(WikiConfig{Seed: 42})
	if err := site.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	doc := htmlx.Parse(string(site.HTML()))
	for _, id := range []string{"navbar", "content", "infobox", "references", "title"} {
		if doc.ByID(id) == nil {
			t.Errorf("missing #%s", id)
		}
	}
	paras, err := cssx.Query(doc, "#content p")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// summary + 6 sections x 3 paragraphs = 19.
	if len(paras) != 19 {
		t.Errorf("#content p = %d, want 19", len(paras))
	}
	sections, err := cssx.Query(doc, "#content .section")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(sections) != 6 {
		t.Errorf("sections = %d, want 6", len(sections))
	}
}

func TestWikiArticleResources(t *testing.T) {
	site := WikiArticle(WikiConfig{Seed: 1, Images: 3, ImageBytes: 1000})
	wantFiles := []string{"index.html", "css/style.css", "js/article.js", "img/lead.png", "img/figure-1.png", "img/figure-2.png", "img/figure-3.png"}
	for _, f := range wantFiles {
		if _, ok := site.Get(f); !ok {
			t.Errorf("missing resource %q (have %v)", f, site.Paths())
		}
	}
	img, _ := site.Get("img/lead.png")
	if len(img) != 1000 {
		t.Errorf("image bytes = %d, want 1000", len(img))
	}
	if !bytes.HasPrefix(img, []byte{0x89, 'P', 'N', 'G'}) {
		t.Error("image should carry a PNG signature")
	}
	if site.TotalBytes() <= 4000 {
		t.Errorf("TotalBytes = %d, suspiciously small", site.TotalBytes())
	}
}

func TestWikiFontSizeInCSS(t *testing.T) {
	for _, pt := range []int{10, 12, 14, 18, 22} {
		site := WikiArticle(WikiConfig{Seed: 42, FontSizePt: pt})
		css, _ := site.Get("css/style.css")
		sheet := cssx.ParseStylesheet(string(css))
		doc := htmlx.Parse(string(site.HTML()))
		paras, err := cssx.Query(doc, "#content p")
		if err != nil || len(paras) == 0 {
			t.Fatalf("query paras: %v", err)
		}
		style := sheet.ComputedStyle(paras[1])
		px, ok := cssx.ParsePixels(style["font-size"], 16)
		if !ok {
			t.Fatalf("font-size %q unparsable", style["font-size"])
		}
		wantPx := float64(pt) * 96 / 72
		if px != wantPx {
			t.Errorf("pt=%d: computed %vpx, want %vpx", pt, px, wantPx)
		}
	}
}

func TestWikiFontSizeVersionsHoldTextConstant(t *testing.T) {
	var versions []*Site
	for _, pt := range []int{10, 12, 14, 18, 22} {
		versions = append(versions, WikiArticle(WikiConfig{Seed: 9, FontSizePt: pt}))
	}
	baseText := htmlx.Parse(string(versions[0].HTML())).ByID("content").Text()
	for i, v := range versions[1:] {
		text := htmlx.Parse(string(v.HTML())).ByID("content").Text()
		if text != baseText {
			t.Errorf("version %d text differs from base", i+1)
		}
	}
	// But the CSS differs.
	css0, _ := versions[0].Get("css/style.css")
	css1, _ := versions[1].Get("css/style.css")
	if string(css0) == string(css1) {
		t.Error("font-size versions should have different CSS")
	}
}

func TestWikiDeterminism(t *testing.T) {
	a := WikiArticle(WikiConfig{Seed: 5})
	b := WikiArticle(WikiConfig{Seed: 5})
	if !bytes.Equal(a.HTML(), b.HTML()) {
		t.Error("same seed should give identical HTML")
	}
	c := WikiArticle(WikiConfig{Seed: 6})
	if bytes.Equal(a.HTML(), c.HTML()) {
		t.Error("different seeds should give different prose")
	}
}

func TestGroupPageStructure(t *testing.T) {
	site := GroupPage(GroupConfig{Seed: 3})
	if err := site.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	doc := htmlx.Parse(string(site.HTML()))
	sections, err := cssx.Query(doc, ".section")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(sections) != 9 {
		t.Errorf("sections = %d, want 9 (the paper's nine)", len(sections))
	}
	btns, err := cssx.Query(doc, ".expand-btn")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(btns) != 9 {
		t.Errorf("expand buttons = %d, want 9", len(btns))
	}
	for _, btn := range btns {
		if btn.HasClass("expand-btn-variant") {
			t.Error("original version must not carry the variant class")
		}
	}
}

func TestGroupPageVariant(t *testing.T) {
	a, b := GroupPageVersions(GroupConfig{Seed: 3})
	docA := htmlx.Parse(string(a.HTML()))
	docB := htmlx.Parse(string(b.HTML()))
	// Section text identical across versions (same seed).
	if docA.ByID("sec-1").Find(func(n *htmlx.Node) bool { return n.Tag == "ul" }).Text() !=
		docB.ByID("sec-1").Find(func(n *htmlx.Node) bool { return n.Tag == "ul" }).Text() {
		t.Error("A and B section text should match")
	}
	variantBtns, err := cssx.Query(docB, ".expand-btn-variant")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(variantBtns) != 9 {
		t.Fatalf("variant buttons = %d, want 9", len(variantBtns))
	}
	// The variant carries the symbol and larger font.
	if !strings.Contains(variantBtns[0].Text(), "Expand") {
		t.Error("variant button should still read Expand")
	}
	cssB, _ := b.Get("css/group.css")
	sheet := cssx.ParseStylesheet(string(cssB))
	style := sheet.ComputedStyle(variantBtns[0])
	px, ok := cssx.ParsePixels(style["font-size"], 16)
	if !ok || px != 18 {
		t.Errorf("variant font-size = %v px (ok=%v), want 18 (1.5x of 12)", px, ok)
	}
	// Original A: 12px buttons.
	cssA, _ := a.Get("css/group.css")
	sheetA := cssx.ParseStylesheet(string(cssA))
	btnA, err := cssx.Query(docA, ".expand-btn")
	if err != nil {
		t.Fatal(err)
	}
	styleA := sheetA.ComputedStyle(btnA[0])
	pxA, _ := cssx.ParsePixels(styleA["font-size"], 16)
	if pxA != 12 {
		t.Errorf("original font-size = %v px, want 12", pxA)
	}
}

func TestGroupPageVariantPlacement(t *testing.T) {
	_, b := GroupPageVersions(GroupConfig{Seed: 3})
	doc := htmlx.Parse(string(b.HTML()))
	sec := doc.ByID("sec-1")
	// In the variant the button is a direct child of the section (inline,
	// close to the text), not wrapped in a right-aligned .expand-row.
	rows, err := cssx.Query(sec, ".expand-row")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Error("variant should not use the right-aligned expand-row wrapper")
	}
}

func TestSitePutGetClean(t *testing.T) {
	s := NewSite("index.html")
	s.Put("./css/style.css", []byte("x"))
	if _, ok := s.Get("css/style.css"); !ok {
		t.Error("path cleaning failed on Put")
	}
	if _, ok := s.Get("./css/style.css"); !ok {
		t.Error("path cleaning failed on Get")
	}
	if _, ok := s.Get("missing.css"); ok {
		t.Error("missing file should not be found")
	}
}

func TestSiteClone(t *testing.T) {
	s := NewSite("index.html")
	s.Put("index.html", []byte("orig"))
	cp := s.Clone()
	cp.Put("index.html", []byte("changed"))
	if string(s.HTML()) != "orig" {
		t.Error("clone mutation affected original")
	}
}

func TestSiteValidate(t *testing.T) {
	s := NewSite("")
	if err := s.Validate(); err == nil {
		t.Error("empty main file name should fail")
	}
	s = NewSite("index.html")
	if err := s.Validate(); err == nil {
		t.Error("missing main file should fail")
	}
	s.Put("index.html", nil)
	if err := s.Validate(); err == nil {
		t.Error("empty main file should fail")
	}
}

func TestProseDeterminism(t *testing.T) {
	a := newProse(1).Paragraph(4)
	b := newProse(1).Paragraph(4)
	if a != b {
		t.Error("prose must be deterministic per seed")
	}
	if len(strings.Fields(a)) < 20 {
		t.Errorf("paragraph too short: %q", a)
	}
	if !strings.HasSuffix(strings.TrimSpace(a), ".") {
		t.Error("sentences should end with periods")
	}
}

func TestGroupPageCustomSections(t *testing.T) {
	site := GroupPage(GroupConfig{Seed: 1, Sections: []string{"Only"}, ItemsPerSection: 2, VisibleItems: 2})
	doc := htmlx.Parse(string(site.HTML()))
	secs, err := cssx.Query(doc, ".section")
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("sections = %d, want 1", len(secs))
	}
	// No hidden items -> no expand button.
	btns, err := cssx.Query(doc, ".expand-btn")
	if err != nil {
		t.Fatal(err)
	}
	if len(btns) != 0 {
		t.Errorf("expand buttons = %d, want 0 when nothing is hidden", len(btns))
	}
}
