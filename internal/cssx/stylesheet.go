package cssx

import (
	"fmt"
	"strings"

	"kaleidoscope/internal/htmlx"
)

// Declaration is one property: value pair inside a rule.
type Declaration struct {
	Property string
	Value    string
}

// Rule is one style rule: a selector group with declarations.
type Rule struct {
	Selectors *SelectorList
	Decls     []Declaration
}

// Stylesheet is a parsed CSS document. At-rules other than @media are
// skipped; @media blocks are flattened (their rules kept unconditionally),
// which is the right behaviour for Kaleidoscope's single-viewport replay.
type Stylesheet struct {
	Rules []Rule
}

// ParseStylesheet parses CSS source. It is forgiving: unparsable rules are
// skipped rather than failing the sheet, matching browser error recovery.
func ParseStylesheet(src string) *Stylesheet {
	sheet := &Stylesheet{}
	parseRules(stripComments(src), sheet)
	return sheet
}

func parseRules(src string, sheet *Stylesheet) {
	rest := src
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return
		}
		if rest[0] == '@' {
			rest = parseAtRule(rest, sheet)
			continue
		}
		brace := strings.IndexByte(rest, '{')
		if brace < 0 {
			return // trailing junk without a block
		}
		selSrc := rest[:brace]
		body, remaining, ok := readBlock(rest[brace:])
		if !ok {
			return
		}
		rest = remaining
		selectors, err := ParseSelectorList(selSrc)
		if err != nil {
			continue // skip unparsable rule, keep going
		}
		sheet.Rules = append(sheet.Rules, Rule{
			Selectors: selectors,
			Decls:     ParseDeclarations(body),
		})
	}
}

// parseAtRule consumes one at-rule at the head of src and returns the
// remaining input. @media blocks are recursed into; other at-rules are
// skipped entirely.
func parseAtRule(src string, sheet *Stylesheet) string {
	brace := strings.IndexByte(src, '{')
	semi := strings.IndexByte(src, ';')
	// Statement at-rule, e.g. @import "...";
	if semi >= 0 && (brace < 0 || semi < brace) {
		return src[semi+1:]
	}
	if brace < 0 {
		return ""
	}
	body, remaining, ok := readBlock(src[brace:])
	if !ok {
		return ""
	}
	if strings.HasPrefix(src, "@media") {
		parseRules(body, sheet)
	}
	return remaining
}

// readBlock reads a balanced {...} block starting at src[0] == '{' and
// returns its body and the input after the closing brace.
func readBlock(src string) (body, rest string, ok bool) {
	if src == "" || src[0] != '{' {
		return "", "", false
	}
	depth := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return src[1:i], src[i+1:], true
			}
		}
	}
	// Unterminated block: treat the remainder as the body.
	return src[1:], "", true
}

// ParseDeclarations parses the body of a rule into declarations. Malformed
// entries are skipped.
func ParseDeclarations(body string) []Declaration {
	var decls []Declaration
	for _, chunk := range strings.Split(body, ";") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		colon := strings.IndexByte(chunk, ':')
		if colon <= 0 {
			continue
		}
		prop := strings.ToLower(strings.TrimSpace(chunk[:colon]))
		val := strings.TrimSpace(chunk[colon+1:])
		if prop == "" || val == "" {
			continue
		}
		decls = append(decls, Declaration{Property: prop, Value: val})
	}
	return decls
}

// stripComments removes /* ... */ comments.
func stripComments(src string) string {
	var b strings.Builder
	for {
		start := strings.Index(src, "/*")
		if start < 0 {
			b.WriteString(src)
			return b.String()
		}
		b.WriteString(src[:start])
		end := strings.Index(src[start+2:], "*/")
		if end < 0 {
			return b.String()
		}
		src = src[start+2+end+2:]
	}
}

// ComputedStyle resolves the value each property takes on node n under the
// stylesheet's rules, honouring specificity and source order (later rules
// win ties). Inline style="" attributes override everything, mirroring the
// cascade. Inheritance is applied for the inherited properties Kaleidoscope
// cares about (font-size, font-family, color, line-height).
func (s *Stylesheet) ComputedStyle(n *htmlx.Node) map[string]string {
	out := make(map[string]string)
	// Inherited properties flow from ancestors first (nearest wins last).
	var chain []*htmlx.Node
	for anc := n; anc != nil; anc = anc.Parent {
		if anc.Type == htmlx.ElementNode {
			chain = append(chain, anc)
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		styles := s.matchedStyle(chain[i])
		for prop, val := range styles {
			if chain[i] == n || inheritedProperties[prop] {
				out[prop] = val
			}
		}
	}
	return out
}

var inheritedProperties = map[string]bool{
	"font-size":   true,
	"font-family": true,
	"color":       true,
	"line-height": true,
	"font-style":  true,
	"font-weight": true,
	"text-align":  true,
}

// matchedStyle computes the directly-applicable declarations for one node:
// stylesheet rules by (specificity, order), then the inline style attribute.
func (s *Stylesheet) matchedStyle(n *htmlx.Node) map[string]string {
	type winner struct {
		spec  Specificity
		order int
		val   string
	}
	best := make(map[string]winner)
	for order, rule := range s.Rules {
		matched := false
		var spec Specificity
		for _, sel := range rule.Selectors.Selectors {
			if sel.Matches(n) {
				matched = true
				if sel.Specificity().Compare(spec) > 0 {
					spec = sel.Specificity()
				}
			}
		}
		if !matched {
			continue
		}
		for _, d := range rule.Decls {
			w, ok := best[d.Property]
			if !ok || spec.Compare(w.spec) > 0 || (spec.Compare(w.spec) == 0 && order >= w.order) {
				best[d.Property] = winner{spec: spec, order: order, val: d.Value}
			}
		}
	}
	out := make(map[string]string, len(best))
	for prop, w := range best {
		out[prop] = w.val
	}
	// Inline style attribute wins over everything.
	if inline, ok := n.Attr("style"); ok {
		for _, d := range ParseDeclarations(inline) {
			out[d.Property] = d.Value
		}
	}
	return out
}

// ParsePixels parses a CSS length like "14px", "14pt", or "1.5em" (relative
// to base) into pixels. Points are converted at the CSS ratio 96/72.
func ParsePixels(val string, base float64) (float64, bool) {
	val = strings.TrimSpace(strings.ToLower(val))
	parse := func(suffix string) (float64, bool) {
		num := strings.TrimSuffix(val, suffix)
		var f float64
		if _, err := fmt.Sscanf(num, "%g", &f); err != nil {
			return 0, false
		}
		return f, true
	}
	switch {
	case strings.HasSuffix(val, "px"):
		return parse("px")
	case strings.HasSuffix(val, "pt"):
		f, ok := parse("pt")
		return f * 96 / 72, ok
	case strings.HasSuffix(val, "em"):
		f, ok := parse("em")
		return f * base, ok
	case strings.HasSuffix(val, "%"):
		f, ok := parse("%")
		return f / 100 * base, ok
	default:
		f, ok := parse("")
		return f, ok
	}
}
