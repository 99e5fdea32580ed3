package inline

import (
	"strings"
	"testing"
	"testing/quick"

	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/webgen"
)

// assertSelfContained fails unless the HTML references no external
// resources at all.
func assertSelfContained(t *testing.T, html string) {
	t.Helper()
	doc := htmlx.Parse(html)
	for _, link := range doc.ByTag("link") {
		if strings.EqualFold(link.AttrOr("rel", ""), "stylesheet") {
			t.Fatalf("external stylesheet survives: %q", link.AttrOr("href", ""))
		}
	}
	for _, script := range doc.ByTag("script") {
		if src, ok := script.Attr("src"); ok {
			t.Fatalf("external script survives: %q", src)
		}
	}
	for _, img := range doc.ByTag("img") {
		if src := img.AttrOr("src", ""); !strings.HasPrefix(src, "data:") {
			t.Fatalf("external image survives: %q", src)
		}
	}
}

// TestInlineSelfContainedProperty: every wiki/group generator output,
// across arbitrary configurations, inlines into a fully self-contained
// page — the property the browser extension's offline replay depends on.
func TestInlineSelfContainedProperty(t *testing.T) {
	f := func(seed int64, fontPt, sections, images uint8) bool {
		cfg := webgen.WikiConfig{
			Seed:       seed,
			FontSizePt: int(fontPt%20) + 6,
			Sections:   int(sections%8) + 1,
			Images:     int(images%5) + 1,
			ImageBytes: 256,
		}
		site := webgen.WikiArticle(cfg)
		html, rpt, err := Inline(site)
		if err != nil {
			t.Logf("inline failed for %+v: %v", cfg, err)
			return false
		}
		if len(rpt.Missing) != 0 {
			return false
		}
		assertSelfContained(t, html)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInlineGroupSelfContainedProperty(t *testing.T) {
	f := func(seed int64, variant bool, items uint8) bool {
		site := webgen.GroupPage(webgen.GroupConfig{
			Seed:            seed,
			ExpandVariant:   variant,
			ItemsPerSection: int(items%6) + 2,
		})
		html, rpt, err := Inline(site)
		if err != nil || len(rpt.Missing) != 0 {
			return false
		}
		assertSelfContained(t, html)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
