package aggregator

import (
	"path"
	"testing"

	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/inline"
	"kaleidoscope/internal/pageload"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// compressTwoPass is the oracle compressVersion is fuzzed against: the
// straightforward form that renders the inlined page, parses it again to
// inject the replay spec, and renders it a second time.
func compressTwoPass(site *webgen.Site, spec params.PageLoadSpec) (string, error) {
	html, _, err := inline.Inline(site)
	if err != nil {
		return "", err
	}
	doc := htmlx.Parse(html)
	if err := pageload.InjectSpec(doc, spec); err != nil {
		return "", err
	}
	return htmlx.Render(doc), nil
}

// payloadBytes reads a payload back the only way the store offers: by
// storing it.
func payloadBytes(t *testing.T, p store.Payload) string {
	t.Helper()
	blobs := store.NewBlobStore()
	if err := blobs.PutCAS("p", p); err != nil {
		t.Fatal(err)
	}
	data, err := blobs.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// FuzzCompressOnePass: compressVersion (one parse, one render) produces the
// two-pass oracle's bytes for any main document, script, stylesheet and
// replay spec, and what it produces parses and renders back to itself.
func FuzzCompressOnePass(f *testing.F) {
	page := `<!DOCTYPE html><html><head><link rel="stylesheet" href="a.css"><script src="a.js"></script></head>` +
		`<body><p id="x">hi<img src="b.png"></p></body></html>`
	// Resources that spell their own element's end tag, in any case.
	f.Add(page, `var s = "</SCRIPT ><p id='evil'>";`, `p { color: red; }`, 1000, "", false)
	f.Add(page, `var re = /<\/x/; var s = "</script/";`, `p::after { content: "</style>"; }`, 0, "#x", false)
	f.Add(page, `"</style>"`, `/* </script> */ b { margin: 0 }`, 250, "p > img", false)
	// Data-URI images, inlined and already inline, and CSS url() references.
	f.Add(`<html><head><link rel="stylesheet" href="a.css"></head><body><img src="data:image/png;base64,AAAA"><img src="b.png"></body></html>`,
		``, `body { background: url("b.png") } i { background: url(data:image/gif;base64,R0lG) }`, 3000, "", false)
	// External references, which inlining removes or replaces.
	f.Add(`<html><head><link rel="stylesheet" href="https://cdn.example/x.css"><script src="//cdn.example/x.js"></script></head>`+
		`<body><img src="http://cdn.example/i.png"><source src="HTTPS://cdn.example/v.webm"></body></html>`,
		`x()`, `a { b: c }`, 500, "img", false)
	// A page that already carries the injected elements' ids.
	f.Add(`<html><head><script id="kscope-pageload-spec" type="application/json">{"UniformMillis":1}</script></head>`+
		`<body><div id="kscope-pageload-runtime">stale</div><script src="a.js"></script></body></html>`,
		`run()`, ``, 2000, "", false)
	// A main file in a subdirectory, resources beside it and above it.
	f.Add(`<html><head><link rel="stylesheet" href="a.css"><script src="a.js"></script></head><body><img src="../b.png"><img src="/b.png"></body></html>`,
		`go()`, `p { background: url(../b.png) }`, 100, ".c", true)
	// Fragments without head or body, and an empty script.
	f.Add(`<script src="a.js"></script><p>bare`, ``, ``, 0, "", false)
	f.Add(`<ul><li>one<li>two</ul><link rel=stylesheet href=a.css>`, `</script`, `</style`, 7, "li", true)
	f.Fuzz(func(t *testing.T, mainHTML, js, css string, millis int, selector string, nested bool) {
		main := "index.html"
		if nested {
			main = "pages/index.html"
		}
		dir := path.Dir(main)
		site := webgen.NewSite(main)
		site.Put(main, []byte(mainHTML))
		site.Put(path.Join(dir, "a.js"), []byte(js))
		site.Put(path.Join(dir, "a.css"), []byte(css))
		site.Put("b.png", []byte("\x89PNG fake"))
		spec := params.PageLoadSpec{UniformMillis: millis}
		if selector != "" {
			spec = params.PageLoadSpec{Schedule: []params.SelectorTime{{Selector: selector, Millis: millis}}}
		}

		want, wantErr := compressTwoPass(site, spec)
		got, err := compressVersion(site, spec)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			return
		}
		out := payloadBytes(t, got)
		if out != want {
			t.Fatalf("one pass differs from the two-pass oracle:\none: %q\ntwo: %q", out, want)
		}
		if again := htmlx.Render(htmlx.Parse(out)); again != out {
			t.Fatalf("output is not a parse/render fixed point:\n1: %q\n2: %q", out, again)
		}
	})
}
