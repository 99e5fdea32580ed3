package cssx

import (
	"testing"

	"kaleidoscope/internal/htmlx"
)

// FuzzParseSelector ensures the selector parser never panics and that any
// selector it accepts can be matched against a DOM without crashing.
func FuzzParseSelector(f *testing.F) {
	seeds := []string{
		"p", "#id", ".class", "div p", "div > p", "a[href]",
		`a[href^="https"]`, "p.lead.deep", "*", "x:hover",
		"", ">", "# .", "div >", "[unterminated", "a,b", "p , q",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	doc := htmlx.Parse(`<body><div id="main" class="c"><p class="lead"><a href="https://x">l</a></p></div></body>`)
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := ParseSelector(src)
		if err != nil {
			return
		}
		_ = sel.Select(doc)
		_ = sel.Specificity()
	})
}

// FuzzParseStylesheet ensures the stylesheet parser never panics and
// always terminates on arbitrary input.
func FuzzParseStylesheet(f *testing.F) {
	seeds := []string{
		"p { color: red; }",
		"@media (x) { p { a: b; } }",
		"/* unterminated",
		"p { unterminated",
		"}} {{",
		"@import url(x);",
		"a, b { c: d; e: f }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sheet := ParseStylesheet(src)
		if sheet == nil {
			t.Fatal("ParseStylesheet must not return nil")
		}
	})
}
