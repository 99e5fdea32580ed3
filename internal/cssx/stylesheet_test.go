package cssx

import (
	"math"
	"testing"

	"kaleidoscope/internal/htmlx"
)

func TestParseStylesheetBasic(t *testing.T) {
	sheet := ParseStylesheet(`
	  /* a comment */
	  p { font-size: 14px; color: black; }
	  #main, .lead { margin: 0; }
	`)
	if len(sheet.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(sheet.Rules))
	}
	if got := sheet.Rules[0].Decls; len(got) != 2 || got[0] != (Declaration{"font-size", "14px"}) {
		t.Errorf("decls = %+v", got)
	}
	if len(sheet.Rules[1].Selectors.Selectors) != 2 {
		t.Errorf("selector list len = %d", len(sheet.Rules[1].Selectors.Selectors))
	}
}

func TestParseStylesheetSkipsBadRules(t *testing.T) {
	sheet := ParseStylesheet(`
	  !!! { color: red; }
	  p { color: blue; }
	`)
	if len(sheet.Rules) != 1 {
		t.Fatalf("rules = %d, want 1 (bad rule skipped)", len(sheet.Rules))
	}
}

func TestParseStylesheetAtRules(t *testing.T) {
	sheet := ParseStylesheet(`
	  @import url("other.css");
	  @charset "utf-8";
	  @media (max-width: 600px) { p { font-size: 12px; } }
	  @keyframes spin { from { transform: none; } to { transform: none; } }
	  div { color: green; }
	`)
	// @media content is flattened in; @keyframes and statements are skipped.
	if len(sheet.Rules) != 2 {
		t.Fatalf("rules = %d, want 2 (media p + div)", len(sheet.Rules))
	}
	if sheet.Rules[0].Selectors.String() != "p" {
		t.Errorf("flattened media rule = %q", sheet.Rules[0].Selectors.String())
	}
}

func TestParseStylesheetUnterminated(t *testing.T) {
	sheet := ParseStylesheet(`p { color: red; `)
	if len(sheet.Rules) != 1 || sheet.Rules[0].Decls[0].Value != "red" {
		t.Errorf("unterminated block rules = %+v", sheet.Rules)
	}
	// Trailing junk with no block must not loop forever.
	sheet = ParseStylesheet(`p { color: red; } stray-selector-no-block`)
	if len(sheet.Rules) != 1 {
		t.Errorf("rules = %d, want 1", len(sheet.Rules))
	}
}

func TestParseDeclarations(t *testing.T) {
	decls := ParseDeclarations(`font-size: 12pt; ; : bad; noval:; COLOR : Red `)
	if len(decls) != 2 {
		t.Fatalf("decls = %+v, want 2", decls)
	}
	if decls[1] != (Declaration{"color", "Red"}) {
		t.Errorf("decls[1] = %+v", decls[1])
	}
}

func TestComputedStyleCascade(t *testing.T) {
	doc := htmlx.Parse(`<body><div id="main"><p class="lead" style="color: teal">x</p><p>y</p></div></body>`)
	sheet := ParseStylesheet(`
	  p { font-size: 12px; color: black; }
	  .lead { font-size: 16px; }
	  #main p { color: navy; }
	  body { font-family: serif; }
	`)
	lead := doc.ByClass("lead")[0]
	style := sheet.ComputedStyle(lead)
	if style["font-size"] != "16px" {
		t.Errorf("font-size = %q, want 16px (.lead beats p)", style["font-size"])
	}
	if style["color"] != "teal" {
		t.Errorf("color = %q, want teal (inline wins)", style["color"])
	}
	if style["font-family"] != "serif" {
		t.Errorf("font-family = %q, want serif (inherited from body)", style["font-family"])
	}
	plain := doc.ByTag("p")[1]
	style = sheet.ComputedStyle(plain)
	if style["color"] != "navy" {
		t.Errorf("plain p color = %q, want navy (#main p beats p)", style["color"])
	}
	if style["font-size"] != "12px" {
		t.Errorf("plain p font-size = %q, want 12px", style["font-size"])
	}
}

func TestComputedStyleSourceOrderTies(t *testing.T) {
	doc := htmlx.Parse(`<p>x</p>`)
	sheet := ParseStylesheet(`p { color: red; } p { color: blue; }`)
	style := sheet.ComputedStyle(doc.ByTag("p")[0])
	if style["color"] != "blue" {
		t.Errorf("color = %q, want blue (later rule wins tie)", style["color"])
	}
}

func TestComputedStyleNonInheritedStaysLocal(t *testing.T) {
	doc := htmlx.Parse(`<div id="wrap"><span>x</span></div>`)
	sheet := ParseStylesheet(`#wrap { margin: 10px; font-size: 20px; }`)
	span := doc.ByTag("span")[0]
	style := sheet.ComputedStyle(span)
	if _, ok := style["margin"]; ok {
		t.Error("margin should not inherit")
	}
	if style["font-size"] != "20px" {
		t.Errorf("font-size should inherit, got %q", style["font-size"])
	}
}

func TestParsePixels(t *testing.T) {
	tests := []struct {
		val  string
		base float64
		want float64
		ok   bool
	}{
		{"14px", 0, 14, true},
		{"12pt", 0, 16, true}, // 12pt * 96/72 = 16px
		{"1.5em", 10, 15, true},
		{"150%", 20, 30, true},
		{"18", 0, 18, true},
		{" 22PT ", 0, 22 * 96.0 / 72.0, true},
		{"auto", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, tt := range tests {
		got, ok := ParsePixels(tt.val, tt.base)
		if ok != tt.ok || (ok && math.Abs(got-tt.want) > 1e-9) {
			t.Errorf("ParsePixels(%q, %v) = %v,%v want %v,%v", tt.val, tt.base, got, ok, tt.want, tt.ok)
		}
	}
}

func TestStripCommentsUnterminated(t *testing.T) {
	sheet := ParseStylesheet(`p { color: red; } /* unterminated`)
	if len(sheet.Rules) != 1 {
		t.Errorf("rules = %d, want 1", len(sheet.Rules))
	}
}

func TestNestedMediaBlocks(t *testing.T) {
	sheet := ParseStylesheet(`@media screen { @media (min-width: 100px) { p { color: red; } } }`)
	if len(sheet.Rules) != 1 {
		t.Fatalf("nested media rules = %d, want 1", len(sheet.Rules))
	}
}
