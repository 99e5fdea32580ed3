// Package render implements Kaleidoscope's simplified layout model: it
// assigns each DOM element a box in a viewport, estimates the painted area
// each element contributes, and classifies content as above or below the
// fold. The paper's replay engine works by toggling DOM visibility over
// time; this package supplies the geometry that turns those visibility
// events into visual-completeness numbers (Speed Index, ATF time, TTFP).
//
// The layout algorithm is a deterministic block-stacking model: block
// elements stack vertically, inline content contributes line-wrapped text
// height from the computed font size, and images use their width/height
// attributes. It is intentionally not a browser — it is a consistent,
// reproducible stand-in that preserves the property the experiments need:
// nav bars land above the fold, references land below it, and bigger fonts
// consume more vertical space.
package render

import (
	"math"
	"strconv"
	"strings"

	"kaleidoscope/internal/cssx"
	"kaleidoscope/internal/htmlx"
)

// Viewport is the visible window geometry in CSS pixels.
type Viewport struct {
	Width  float64
	Height float64
}

// DefaultViewport matches the most common desktop size of the paper's era.
func DefaultViewport() Viewport { return Viewport{Width: 1366, Height: 768} }

// Box is an element's layout rectangle.
type Box struct {
	X, Y, W, H float64
}

// NodeGeom is the per-element output of layout.
type NodeGeom struct {
	// Box is the element's full rectangle (including descendants).
	Box Box
	// OwnArea is the painted area contributed exclusively by this element:
	// its direct text content and direct images, excluding block
	// descendants (which carry their own areas). Summing OwnArea over all
	// elements never double-counts.
	OwnArea float64
	// OwnAreaATF is the portion of OwnArea that falls above the fold.
	OwnAreaATF float64
}

// Layout is the result of laying out a document.
type Layout struct {
	Viewport Viewport
	// Geom maps each element to its geometry. Only element nodes appear.
	Geom map[*htmlx.Node]NodeGeom
	// TotalHeight is the document's full height.
	TotalHeight float64
	// TotalOwnArea and TotalOwnAreaATF are sums over all elements.
	TotalOwnArea    float64
	TotalOwnAreaATF float64
}

// layout constants; crude but stable.
const (
	defaultFontPx   = 16.0
	blockPaddingPx  = 8.0
	avgCharWidthEm  = 0.5 // average glyph width as a fraction of font size
	defaultImgH     = 150.0
	defaultLineMult = 1.4
)

// blockTags render as vertically-stacked blocks; everything else is inline.
var blockTags = map[string]bool{
	"address": true, "article": true, "aside": true, "blockquote": true,
	"body": true, "div": true, "dl": true, "dd": true, "dt": true,
	"fieldset": true, "figcaption": true, "figure": true, "footer": true,
	"form": true, "h1": true, "h2": true, "h3": true, "h4": true,
	"h5": true, "h6": true, "header": true, "hr": true, "html": true,
	"li": true, "main": true, "nav": true, "ol": true, "p": true,
	"pre": true, "section": true, "table": true, "tbody": true,
	"td": true, "th": true, "thead": true, "tr": true, "ul": true,
}

// skippedTags contribute no layout at all.
var skippedTags = map[string]bool{
	"script": true, "style": true, "head": true, "meta": true,
	"link": true, "title": true, "template": true,
}

// IsBlock reports whether tag lays out as a block.
func IsBlock(tag string) bool { return blockTags[tag] }

// LayoutDocument lays out doc under the stylesheet and viewport.
// A nil stylesheet means defaults everywhere.
func LayoutDocument(doc *htmlx.Node, sheet *cssx.Stylesheet, vp Viewport) *Layout {
	if sheet == nil {
		sheet = cssx.ParseStylesheet("")
	}
	l := &Layout{
		Viewport: vp,
		Geom:     make(map[*htmlx.Node]NodeGeom),
	}
	body := doc.Body()
	root := body
	if root == nil {
		root = doc
	}
	h := l.layoutBlock(root, sheet, 0, 0, vp.Width)
	l.TotalHeight = h
	for _, g := range l.Geom {
		l.TotalOwnArea += g.OwnArea
		l.TotalOwnAreaATF += g.OwnAreaATF
	}
	return l
}

// layoutBlock lays out a block element at (x, y) with the given width and
// returns its height.
func (l *Layout) layoutBlock(n *htmlx.Node, sheet *cssx.Stylesheet, x, y, width float64) float64 {
	style := sheet.ComputedStyle(n)
	if style["display"] == "none" {
		if n.Type == htmlx.ElementNode {
			l.Geom[n] = NodeGeom{Box: Box{X: x, Y: y, W: 0, H: 0}}
		}
		return 0
	}
	fontPx := fontSizeOf(style)
	lineH := lineHeightOf(style, fontPx)

	// Direct inline content: text runs and inline elements (with their
	// text), plus direct images.
	inlineChars, imgAreas, imgHeights := l.collectInline(n, sheet, x, y, width)
	textH := textHeight(inlineChars, fontPx, lineH, width)

	cursor := y + textH
	for _, imgH := range imgHeights {
		cursor += imgH
	}

	if style["display"] == "flex" {
		// Flex row: block children sit side by side. Children with an
		// explicit CSS width keep it; the rest split the remaining width
		// equally. Height is the tallest column.
		cursor += l.layoutFlexRow(n, sheet, x, cursor, width)
	} else {
		// Block children stack below the inline content.
		for _, c := range n.Children {
			if c.Type != htmlx.ElementNode || skippedTags[c.Tag] {
				continue
			}
			if IsBlock(c.Tag) {
				h := l.layoutBlock(c, sheet, x, cursor, width)
				cursor += h
			}
		}
	}

	height := cursor - y
	if height > 0 {
		height += blockPaddingPx
	}

	// Text area is glyph-cell area (chars x char width x line height), not
	// full line-box width — a one-word paragraph paints little.
	ownTextArea := float64(inlineChars) * fontPx * avgCharWidthEm * lineH
	ownArea := ownTextArea + imgAreas
	geom := NodeGeom{
		Box:     Box{X: x, Y: y, W: width, H: height},
		OwnArea: ownArea,
	}
	// The own area sits at the top of the box (text first, then images).
	ownH := textH
	for _, imgH := range imgHeights {
		ownH += imgH
	}
	geom.OwnAreaATF = clipAreaToFold(ownArea, y, ownH, l.Viewport.Height)
	if n.Type == htmlx.ElementNode {
		l.Geom[n] = geom
	}
	return height
}

// layoutFlexRow lays out n's block children side by side and returns the
// row height (the tallest child).
func (l *Layout) layoutFlexRow(n *htmlx.Node, sheet *cssx.Stylesheet, x, y, width float64) float64 {
	var blocks []*htmlx.Node
	for _, c := range n.Children {
		if c.Type == htmlx.ElementNode && !skippedTags[c.Tag] && IsBlock(c.Tag) {
			blocks = append(blocks, c)
		}
	}
	if len(blocks) == 0 {
		return 0
	}
	widths := make([]float64, len(blocks))
	remaining := width
	flexible := 0
	for i, c := range blocks {
		cs := sheet.ComputedStyle(c)
		if w, ok := cssx.ParsePixels(cs["width"], width); ok && w > 0 && w <= width {
			widths[i] = w
			remaining -= w
		} else {
			widths[i] = -1
			flexible++
		}
	}
	if remaining < 0 {
		remaining = 0
	}
	for i := range widths {
		if widths[i] < 0 {
			widths[i] = remaining / float64(flexible)
		}
	}
	var maxH float64
	cx := x
	for i, c := range blocks {
		h := l.layoutBlock(c, sheet, cx, y, widths[i])
		if h > maxH {
			maxH = h
		}
		cx += widths[i]
	}
	return maxH
}

// collectInline gathers the inline content directly owned by block n:
// the total text characters (from text nodes and inline descendants,
// stopping at block boundaries) and direct image areas/heights. Inline
// elements are also given zero-height geometry entries anchored at the
// parent's origin so selector-based schedules can target them.
func (l *Layout) collectInline(n *htmlx.Node, sheet *cssx.Stylesheet, x, y, width float64) (chars int, imgArea float64, imgHeights []float64) {
	for _, c := range n.Children {
		switch c.Type {
		case htmlx.TextNode:
			chars += len(strings.TrimSpace(collapseSpace(c.Data)))
		case htmlx.ElementNode:
			if skippedTags[c.Tag] || IsBlock(c.Tag) {
				continue
			}
			if c.Tag == "img" {
				w := attrFloat(c, "width", width/4)
				h := attrFloat(c, "height", defaultImgH)
				if w > width {
					w = width
				}
				imgArea += w * h
				imgHeights = append(imgHeights, h)
				l.Geom[c] = NodeGeom{
					Box:        Box{X: x, Y: y, W: w, H: h},
					OwnArea:    w * h,
					OwnAreaATF: clipAreaToFold(w*h, y, h, l.Viewport.Height),
				}
				continue
			}
			// Inline element: its text counts toward the parent block; it
			// gets a zero-area geometry entry for selector targeting.
			subChars, subImgArea, subImgHeights := l.collectInline(c, sheet, x, y, width)
			chars += subChars
			imgArea += subImgArea
			imgHeights = append(imgHeights, subImgHeights...)
			if _, exists := l.Geom[c]; !exists {
				l.Geom[c] = NodeGeom{Box: Box{X: x, Y: y, W: 0, H: 0}}
			}
		}
	}
	return chars, imgArea, imgHeights
}

// textHeight estimates the height of `chars` characters of wrapped text.
func textHeight(chars int, fontPx, lineH, width float64) float64 {
	if chars == 0 || width <= 0 {
		return 0
	}
	charW := fontPx * avgCharWidthEm
	charsPerLine := math.Max(1, width/charW)
	lines := math.Ceil(float64(chars) / charsPerLine)
	return lines * lineH
}

// clipAreaToFold returns the fraction of area whose vertical extent
// [y, y+h] overlaps [0, foldY], assuming the area is uniformly distributed
// over the extent.
func clipAreaToFold(area, y, h, foldY float64) float64 {
	if area == 0 || h <= 0 {
		if y < foldY {
			return area
		}
		return 0
	}
	top := math.Max(y, 0)
	bottom := math.Min(y+h, foldY)
	if bottom <= top {
		return 0
	}
	return area * (bottom - top) / h
}

// fontSizeOf resolves the computed font-size in pixels.
func fontSizeOf(style map[string]string) float64 {
	if v, ok := style["font-size"]; ok {
		if px, ok := cssx.ParsePixels(v, defaultFontPx); ok && px > 0 {
			return px
		}
	}
	return defaultFontPx
}

// lineHeightOf resolves the line height in pixels.
func lineHeightOf(style map[string]string, fontPx float64) float64 {
	if v, ok := style["line-height"]; ok {
		v = strings.TrimSpace(v)
		// Bare multipliers ("1.4") are relative to font size.
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f * fontPx
		}
		if px, ok := cssx.ParsePixels(v, fontPx); ok && px > 0 {
			return px
		}
	}
	return defaultLineMult * fontPx
}

func attrFloat(n *htmlx.Node, key string, def float64) float64 {
	v, ok := n.Attr(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || f <= 0 {
		return def
	}
	return f
}

func collapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
