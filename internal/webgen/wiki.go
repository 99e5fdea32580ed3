package webgen

import (
	"fmt"
	"strings"
)

// WikiConfig parameterizes the wiki-style article generator. The defaults
// mirror the paper's test page: a text-heavy encyclopedia article with a
// navigation bar, an infobox, main text content, and references.
type WikiConfig struct {
	// Title is the article title. Defaults to "Rock Hyrax".
	Title string
	// FontSizePt is the main-text font size in points — the variable the
	// paper's first experiment sweeps (10, 12, 14, 18, 22). Defaults to 14.
	FontSizePt int
	// LineSpacing is the main-text line-height multiplier. Defaults to 1.4.
	LineSpacing float64
	// Sections is the number of body sections. Defaults to 6.
	Sections int
	// ParagraphsPerSection controls text volume. Defaults to 3.
	ParagraphsPerSection int
	// SentencesPerParagraph controls paragraph length. Defaults to 5.
	SentencesPerParagraph int
	// Images is the number of figure images embedded in sections (plus the
	// infobox lead image). Defaults to 2.
	Images int
	// ImageBytes is the payload size of each generated image. Defaults to
	// 24 KiB.
	ImageBytes int
	// References is the number of reference entries. Defaults to 12.
	References int
	// Seed drives deterministic prose generation.
	Seed int64
}

// withDefaults fills zero fields with the documented defaults.
func (c WikiConfig) withDefaults() WikiConfig {
	if c.Title == "" {
		c.Title = "Rock Hyrax"
	}
	if c.FontSizePt == 0 {
		c.FontSizePt = 14
	}
	if c.LineSpacing == 0 {
		c.LineSpacing = 1.4
	}
	if c.Sections == 0 {
		c.Sections = 6
	}
	if c.ParagraphsPerSection == 0 {
		c.ParagraphsPerSection = 3
	}
	if c.SentencesPerParagraph == 0 {
		c.SentencesPerParagraph = 5
	}
	if c.Images == 0 {
		c.Images = 2
	}
	if c.ImageBytes == 0 {
		c.ImageBytes = 24 << 10
	}
	if c.References == 0 {
		c.References = 12
	}
	return c
}

// navLinks are the navigation-bar entries of the generated article.
var navLinks = []string{
	"Main page", "Contents", "Current events", "Random article",
	"About", "Contact", "Donate", "Help",
}

// WikiArticle generates one version of the wiki-style article as a
// saved-webpage folder: index.html plus css/, js/, and img/ resources.
//
// Stable element ids the experiments rely on:
//
//	#navbar      — the navigation bar (Fig. 9's "auxiliary content")
//	#content     — the main text column (Fig. 9's "main text content")
//	#infobox     — the right-hand fact box
//	#references  — the reference list
//	#content p   — the main text paragraphs the font-size study restyles
func WikiArticle(cfg WikiConfig) *Site {
	cfg = cfg.withDefaults()
	gen := newProse(cfg.Seed)
	site := NewSite("index.html")

	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "<meta charset=\"utf-8\">\n<title>%s</title>\n", cfg.Title)
	b.WriteString("<link rel=\"stylesheet\" href=\"css/style.css\">\n")
	b.WriteString("<script src=\"js/article.js\"></script>\n")
	b.WriteString("</head>\n<body>\n")

	// Navigation bar.
	b.WriteString("<nav id=\"navbar\">\n<ul>\n")
	for i, link := range navLinks {
		fmt.Fprintf(&b, "<li><a href=\"#nav-%d\" class=\"nav-link\">%s</a></li>\n", i, link)
	}
	b.WriteString("</ul>\n</nav>\n")

	b.WriteString("<div id=\"page\">\n")

	// Infobox with the lead image.
	b.WriteString("<aside id=\"infobox\">\n")
	fmt.Fprintf(&b, "<img src=\"img/lead.png\" alt=\"%s\" width=\"220\" height=\"160\">\n", cfg.Title)
	b.WriteString("<table>\n")
	facts := []string{"Kingdom", "Phylum", "Class", "Order", "Family", "Genus"}
	for _, fact := range facts {
		fmt.Fprintf(&b, "<tr><th>%s</th><td>%s</td></tr>\n", fact, gen.Title())
	}
	b.WriteString("</table>\n</aside>\n")

	// Main content column.
	b.WriteString("<div id=\"content\">\n")
	fmt.Fprintf(&b, "<h1 id=\"title\">%s</h1>\n", cfg.Title)
	fmt.Fprintf(&b, "<p class=\"summary\">%s</p>\n", gen.Paragraph(cfg.SentencesPerParagraph))

	imagesLeft := cfg.Images
	for s := 1; s <= cfg.Sections; s++ {
		fmt.Fprintf(&b, "<div class=\"section\" id=\"section-%d\">\n", s)
		fmt.Fprintf(&b, "<h2>%s</h2>\n", gen.Title())
		for p := 0; p < cfg.ParagraphsPerSection; p++ {
			fmt.Fprintf(&b, "<p>%s</p>\n", gen.Paragraph(cfg.SentencesPerParagraph))
		}
		if imagesLeft > 0 {
			fmt.Fprintf(&b, "<figure><img src=\"img/figure-%d.png\" alt=\"Figure %d\" width=\"320\" height=\"200\"><figcaption>%s</figcaption></figure>\n",
				imagesLeft, imagesLeft, gen.Sentence())
			imagesLeft--
		}
		b.WriteString("</div>\n")
	}

	// References.
	b.WriteString("<div id=\"references\">\n<h2>References</h2>\n<ol>\n")
	for r := 0; r < cfg.References; r++ {
		fmt.Fprintf(&b, "<li>%s</li>\n", gen.Sentence())
	}
	b.WriteString("</ol>\n</div>\n")

	b.WriteString("</div>\n</div>\n</body>\n</html>\n")
	site.Put("index.html", []byte(b.String()))

	site.Put("css/style.css", []byte(wikiCSS(cfg)))
	site.Put("js/article.js", []byte(wikiJS))
	site.Put("img/lead.png", fakePNG(1, cfg.ImageBytes))
	for i := 1; i <= cfg.Images; i++ {
		site.Put(fmt.Sprintf("img/figure-%d.png", i), fakePNG(byte(1+i), cfg.ImageBytes))
	}
	return site
}

// wikiCSS renders the article stylesheet; the main-text font size and line
// spacing come from the config so version mutators only need to change the
// config.
func wikiCSS(cfg WikiConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, `body { margin: 0; font-family: %s; color: #202122; }
#navbar { background: #f8f9fa; border-bottom: 1px solid #a2a9b1; padding: 8px 16px; }
#navbar ul { list-style: none; margin: 0; padding: 0; }
#navbar li { display: inline; margin-right: 14px; }
.nav-link { color: #3366cc; text-decoration: none; font-size: 13px; }
#page { display: flex; max-width: 960px; margin: 0 auto; padding: 16px; }
#infobox { order: 2; width: 240px; margin-left: 16px; border: 1px solid #a2a9b1; background: #f8f9fa; padding: 8px; font-size: 12px; }
#infobox img { display: block; margin-bottom: 8px; }
#content { order: 1; flex: 1; }
#content h1 { font-size: 28px; border-bottom: 1px solid #a2a9b1; }
#content h2 { font-size: 20px; border-bottom: 1px solid #eaecf0; }
#content p { font-size: %dpt; line-height: %.2f; }
#references { font-size: 11pt; color: #54595d; }
figure { margin: 12px 0; }
figcaption { font-size: 11px; color: #54595d; }
`, cssEscapeFontFamily([]string{"Georgia", "serif"}), cfg.FontSizePt, cfg.LineSpacing)
	return b.String()
}

// wikiJS is a small inert script so generated articles have a JS resource
// to inline, as saved real-world pages do.
const wikiJS = `(function () {
  "use strict";
  function ready() {
    var refs = document.getElementById("references");
    if (refs) { refs.setAttribute("data-counted", String(refs.querySelectorAll("li").length)); }
  }
  if (document.readyState !== "loading") { ready(); }
  else { document.addEventListener("DOMContentLoaded", ready); }
})();
`
