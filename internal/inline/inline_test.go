package inline

import (
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/webgen"
)

func sampleSite() *webgen.Site {
	s := webgen.NewSite("index.html")
	s.Put("index.html", []byte(`<!DOCTYPE html><html><head>
<link rel="stylesheet" href="css/style.css">
<script src="js/app.js"></script>
</head><body>
<img src="img/photo.png" alt="p">
<style>#hero { background: url("img/bg.png"); }</style>
</body></html>`))
	s.Put("css/style.css", []byte(`p { color: red; } .icon { background: url('../img/icon.png'); }`))
	s.Put("js/app.js", []byte(`console.log("hi");`))
	s.Put("img/photo.png", []byte("PHOTODATA"))
	s.Put("img/bg.png", []byte("BGDATA"))
	s.Put("img/icon.png", []byte("ICONDATA"))
	return s
}

func TestInlineBasic(t *testing.T) {
	html, rpt, err := Inline(sampleSite(), Options{})
	if err != nil {
		t.Fatalf("Inline: %v", err)
	}
	if rpt.InlinedCSS != 1 || rpt.InlinedJS != 1 || rpt.InlinedImages != 1 {
		t.Errorf("report = %+v", rpt)
	}
	if rpt.InlinedCSSURLs != 2 {
		t.Errorf("css urls = %d, want 2 (icon + bg)", rpt.InlinedCSSURLs)
	}
	if strings.Contains(html, `href="css/style.css"`) {
		t.Error("stylesheet link should be replaced")
	}
	if strings.Contains(html, `src="js/app.js"`) {
		t.Error("script src should be removed")
	}
	if !strings.Contains(html, `console.log("hi");`) {
		t.Error("script body should be inlined verbatim")
	}
	wantImg := "data:image/png;base64," + base64.StdEncoding.EncodeToString([]byte("PHOTODATA"))
	if !strings.Contains(html, wantImg) {
		t.Error("image should be a data URI")
	}
	if !strings.Contains(html, base64.StdEncoding.EncodeToString([]byte("ICONDATA"))) {
		t.Error("CSS url() should be rewritten to a data URI")
	}
	if !strings.Contains(html, base64.StdEncoding.EncodeToString([]byte("BGDATA"))) {
		t.Error("inline <style> url() should be rewritten")
	}
	if len(rpt.Missing) != 0 {
		t.Errorf("missing = %v, want none", rpt.Missing)
	}
	if rpt.OutputBytes != len(html) {
		t.Errorf("OutputBytes = %d, want %d", rpt.OutputBytes, len(html))
	}
}

func TestInlineIsSelfContained(t *testing.T) {
	html, _, err := Inline(sampleSite(), Options{})
	if err != nil {
		t.Fatalf("Inline: %v", err)
	}
	doc := htmlx.Parse(html)
	for _, link := range doc.ByTag("link") {
		if strings.EqualFold(link.AttrOr("rel", ""), "stylesheet") {
			t.Error("self-contained page should have no stylesheet links")
		}
	}
	for _, script := range doc.ByTag("script") {
		if _, ok := script.Attr("src"); ok {
			t.Error("self-contained page should have no script src")
		}
	}
	for _, img := range doc.ByTag("img") {
		src := img.AttrOr("src", "")
		if !strings.HasPrefix(src, "data:") {
			t.Errorf("img src %q is not a data URI", src)
		}
	}
}

func TestInlineMissingLenient(t *testing.T) {
	s := sampleSite()
	delete(s.Files, "img/photo.png")
	html, rpt, err := Inline(s, Options{})
	if err != nil {
		t.Fatalf("lenient mode should not fail: %v", err)
	}
	if len(rpt.Missing) != 1 || rpt.Missing[0] != "img/photo.png" {
		t.Errorf("missing = %v", rpt.Missing)
	}
	if !strings.Contains(html, `src="img/photo.png"`) {
		t.Error("missing resource reference should be left untouched")
	}
}

func TestInlineMissingStrict(t *testing.T) {
	s := sampleSite()
	delete(s.Files, "js/app.js")
	_, _, err := Inline(s, Options{Strict: true})
	var mre *MissingResourceError
	if !errors.As(err, &mre) {
		t.Fatalf("err = %v, want MissingResourceError", err)
	}
	if mre.Ref != "js/app.js" {
		t.Errorf("Ref = %q", mre.Ref)
	}
}

func TestInlineExternalURLs(t *testing.T) {
	s := webgen.NewSite("index.html")
	s.Put("index.html", []byte(`<html><head>
<link rel="stylesheet" href="https://cdn.example/style.css">
<script src="//cdn.example/app.js"></script>
</head><body><img src="http://cdn.example/x.png"></body></html>`))

	// Default: external refs left alone (and not counted missing).
	html, rpt, err := Inline(s, Options{})
	if err != nil {
		t.Fatalf("Inline: %v", err)
	}
	if len(rpt.Missing) != 0 {
		t.Errorf("external refs should not count as missing: %v", rpt.Missing)
	}
	if !strings.Contains(html, "cdn.example/style.css") {
		t.Error("external link should remain by default")
	}

	// DropExternal: remove/replace them so zero network fetches remain.
	html, rpt, err = Inline(s, Options{DropExternal: true})
	if err != nil {
		t.Fatalf("Inline: %v", err)
	}
	if len(rpt.Dropped) != 3 {
		t.Errorf("dropped = %v, want 3", rpt.Dropped)
	}
	if strings.Contains(html, "cdn.example/style.css") || strings.Contains(html, "cdn.example/app.js") {
		t.Error("external css/js should be dropped")
	}
	doc := htmlx.Parse(html)
	img := doc.ByTag("img")[0]
	if !strings.HasPrefix(img.AttrOr("src", ""), "data:image/gif") {
		t.Error("external image should become a placeholder pixel")
	}
}

func TestInlineSkipsDataAndFragment(t *testing.T) {
	s := webgen.NewSite("index.html")
	s.Put("index.html", []byte(`<html><body><img src="data:image/png;base64,AAA="><a href="#top">t</a></body></html>`))
	html, rpt, err := Inline(s, Options{Strict: true})
	if err != nil {
		t.Fatalf("Inline: %v", err)
	}
	if rpt.InlinedImages != 0 {
		t.Error("existing data URI should not be re-inlined")
	}
	if !strings.Contains(html, "base64,AAA=") {
		t.Error("data URI should survive")
	}
}

func TestInlineQueryStringRefs(t *testing.T) {
	s := webgen.NewSite("index.html")
	s.Put("index.html", []byte(`<html><body><img src="img/a.png?v=2#frag"></body></html>`))
	s.Put("img/a.png", []byte("A"))
	_, rpt, err := Inline(s, Options{Strict: true})
	if err != nil {
		t.Fatalf("query-string ref should resolve: %v", err)
	}
	if rpt.InlinedImages != 1 {
		t.Errorf("inlined = %d, want 1", rpt.InlinedImages)
	}
}

func TestInlineNestedMainFile(t *testing.T) {
	s := webgen.NewSite("pages/index.html")
	s.Put("pages/index.html", []byte(`<html><body><img src="../img/x.png"></body></html>`))
	s.Put("img/x.png", []byte("X"))
	_, rpt, err := Inline(s, Options{Strict: true})
	if err != nil {
		t.Fatalf("relative ref from nested main: %v", err)
	}
	if rpt.InlinedImages != 1 {
		t.Errorf("inlined = %d, want 1", rpt.InlinedImages)
	}
}

func TestInlineRootAbsoluteRef(t *testing.T) {
	s := webgen.NewSite("index.html")
	s.Put("index.html", []byte(`<html><body><img src="/img/x.png"></body></html>`))
	s.Put("img/x.png", []byte("X"))
	_, rpt, err := Inline(s, Options{Strict: true})
	if err != nil {
		t.Fatalf("root-absolute ref: %v", err)
	}
	if rpt.InlinedImages != 1 {
		t.Errorf("inlined = %d, want 1", rpt.InlinedImages)
	}
}

func TestInlineInvalidSite(t *testing.T) {
	s := webgen.NewSite("index.html")
	if _, _, err := Inline(s, Options{}); err == nil {
		t.Error("site without main file should fail")
	}
}

// TestInlineWikiArticle runs the inliner over the real generator output —
// the paper's actual pipeline step.
func TestInlineWikiArticle(t *testing.T) {
	site := webgen.WikiArticle(webgen.WikiConfig{Seed: 11})
	html, rpt, err := Inline(site, Options{Strict: true, DropExternal: true})
	if err != nil {
		t.Fatalf("Inline(wiki): %v", err)
	}
	if rpt.InlinedCSS != 1 || rpt.InlinedJS != 1 || rpt.InlinedImages != 3 {
		t.Errorf("report = %+v, want 1 css, 1 js, 3 images", rpt)
	}
	// Result parses and retains the experiment hooks.
	doc := htmlx.Parse(html)
	for _, id := range []string{"navbar", "content", "references"} {
		if doc.ByID(id) == nil {
			t.Errorf("inlined page lost #%s", id)
		}
	}
	if len(html) <= site.TotalBytes()/2 {
		t.Errorf("inlined output suspiciously small: %d vs site %d", len(html), site.TotalBytes())
	}
}

func TestMimeFor(t *testing.T) {
	tests := map[string]string{
		"a.png": "image/png", "b.JPG": "image/jpeg", "c.jpeg": "image/jpeg",
		"d.gif": "image/gif", "e.svg": "image/svg+xml", "f.css": "text/css",
		"g.js": "text/javascript", "h.woff2": "font/woff2", "i.bin": "application/octet-stream",
		"j.png?v=1": "image/png",
	}
	for ref, want := range tests {
		if got := mimeFor(ref); got != want {
			t.Errorf("mimeFor(%q) = %q, want %q", ref, got, want)
		}
	}
}

// TestInlineEscapesResourceEndTags: a script or stylesheet whose text spells
// its own element's end tag is inlined with that end tag escaped, so the
// page parses back to one script and one style holding their whole text,
// and the markup after the end tag stays inside the resource.
func TestInlineEscapesResourceEndTags(t *testing.T) {
	s := webgen.NewSite("index.html")
	s.Put("index.html", []byte(`<html><head><link rel="stylesheet" href="a.css"><script src="a.js"></script></head><body></body></html>`))
	s.Put("a.js", []byte(`var s = "</script><p id='evil'>";`))
	s.Put("a.css", []byte(`p::after { content: "</STYLE ><p id='evil'>"; }`))
	html, _, err := Inline(s, Options{Strict: true})
	if err != nil {
		t.Fatalf("Inline: %v", err)
	}
	doc := htmlx.Parse(html)
	if doc.ByID("evil") != nil {
		t.Errorf("resource text escaped into the page as an element:\n%s", html)
	}
	for tag, want := range map[string]string{
		"script": `var s = "<\/script><p id='evil'>";`,
		"style":  `p::after { content: "<\/STYLE ><p id='evil'>"; }`,
	} {
		els := doc.ByTag(tag)
		if len(els) != 1 || len(els[0].Children) != 1 || els[0].Children[0].Data != want {
			t.Errorf("%s elements = %d, want one holding %q:\n%s", tag, len(els), want, html)
		}
	}
	if again := htmlx.Render(doc); again != html {
		t.Errorf("inlined page is not a parse/render fixed point:\n1: %q\n2: %q", html, again)
	}
}

func TestEscapeEndTag(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", ""},
		{"no end tags", "no end tags"},
		{"</script>", `<\/script>`},
		{"a</SCRIPT b</Script/c", `a<\/SCRIPT b<\/Script/c`},
		{"</scripts>", `<\/scripts>`},
		{"</scrip", "</scrip"},
		{"</style></div></script", `</style></div><\/script`},
		{"<</script", `<<\/script`},
		{"</ſcript", "</ſcript"}, // long s folds to s, but not in the parser's ASCII match
	} {
		if got := escapeEndTag(c.in, "script"); got != c.want {
			t.Errorf("escapeEndTag(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
