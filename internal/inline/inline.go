// Package inline implements Kaleidoscope's SingleFile-equivalent: it
// compresses a saved-webpage folder (an HTML document plus resource files)
// into one self-contained HTML document. The paper needs this because the
// browser extension cannot interact with the filesystem — each test webpage
// must be downloadable as a single file.
//
// Stylesheets become <style> elements (with url(...) references rewritten
// to data: URIs), scripts become inline <script> elements, and images
// become base64 data: URIs.
package inline

import (
	"encoding/base64"
	"fmt"
	"path"
	"strings"

	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/webgen"
)

// Options controls inlining behaviour.
type Options struct {
	// Strict makes missing resources an error. When false (the default),
	// references to missing resources are left untouched, mirroring
	// SingleFile's tolerance of partially saved pages.
	Strict bool
	// DropExternal removes references to absolute http(s) URLs that cannot
	// be resolved from the folder (instead of leaving them). Kaleidoscope
	// uses this to guarantee the integrated page loads with zero network
	// fetches.
	DropExternal bool
}

// Report summarizes what Inline did.
type Report struct {
	InlinedCSS     int // stylesheets converted to <style>
	InlinedJS      int // scripts converted to inline <script>
	InlinedImages  int // images converted to data: URIs
	InlinedCSSURLs int // url(...) references rewritten inside CSS
	Missing        []string
	Dropped        []string
	OutputBytes    int
}

// MissingResourceError reports a reference that could not be resolved in
// Strict mode.
type MissingResourceError struct {
	Ref string
}

func (e *MissingResourceError) Error() string {
	return fmt.Sprintf("inline: resource %q not found in site", e.Ref)
}

// Inline renders the site's main document with every resolvable resource
// embedded, returning the self-contained HTML.
func Inline(site *webgen.Site, opts Options) (string, *Report, error) {
	doc, rpt, err := Tree(site, opts)
	if err != nil {
		return "", rpt, err
	}
	out := htmlx.Render(doc)
	rpt.OutputBytes = len(out)
	return out, rpt, nil
}

// Tree is Inline without the final render: it returns the self-contained
// document as a tree, for callers that edit it further before rendering it
// once. Its Report leaves OutputBytes zero.
func Tree(site *webgen.Site, opts Options) (*htmlx.Node, *Report, error) {
	if err := site.Validate(); err != nil {
		return nil, nil, fmt.Errorf("inline: %w", err)
	}
	rpt := &Report{}
	doc := htmlx.Parse(string(site.HTML()))
	baseDir := path.Dir(site.MainFile)

	var failure error
	record := func(ref string) bool {
		rpt.Missing = append(rpt.Missing, ref)
		if opts.Strict && failure == nil {
			failure = &MissingResourceError{Ref: ref}
		}
		return false
	}

	resolve := func(ref string) ([]byte, bool) {
		if ref == "" || strings.HasPrefix(ref, "data:") || strings.HasPrefix(ref, "#") {
			return nil, false
		}
		if isExternalURL(ref) {
			return nil, false
		}
		clean := ref
		if i := strings.IndexAny(clean, "?#"); i >= 0 {
			clean = clean[:i]
		}
		data, ok := site.Get(path.Join(baseDir, clean))
		if !ok {
			// Also try the raw path for absolute-from-root references.
			data, ok = site.Get(strings.TrimPrefix(clean, "/"))
		}
		if !ok {
			return nil, record(ref)
		}
		return data, true
	}

	// Pass 1: <link rel=stylesheet> -> <style>.
	for _, link := range doc.ByTag("link") {
		if !strings.EqualFold(link.AttrOr("rel", ""), "stylesheet") {
			continue
		}
		href := link.AttrOr("href", "")
		data, ok := resolve(href)
		if !ok {
			if opts.DropExternal && isExternalURL(href) {
				dropNode(link)
				rpt.Dropped = append(rpt.Dropped, href)
			}
			continue
		}
		css := inlineCSSURLs(string(data), path.Dir(path.Join(baseDir, href)), site, rpt, record)
		css = escapeEndTag(css, "style")
		style := htmlx.NewElement("style")
		style.AppendChild(htmlx.NewText(css))
		replaceNode(link, style)
		rpt.InlinedCSS++
	}

	// Pass 2: <script src> -> inline script.
	for _, script := range doc.ByTag("script") {
		src, ok := script.Attr("src")
		if !ok {
			continue
		}
		data, resolved := resolve(src)
		if !resolved {
			if opts.DropExternal && isExternalURL(src) {
				dropNode(script)
				rpt.Dropped = append(rpt.Dropped, src)
			}
			continue
		}
		script.RemoveAttr("src")
		script.Children = nil
		script.AppendChild(htmlx.NewText(escapeEndTag(string(data), "script")))
		rpt.InlinedJS++
	}

	// Pass 3: <img src> and <source src> -> data URIs.
	for _, tag := range []string{"img", "source"} {
		for _, img := range doc.ByTag(tag) {
			src, ok := img.Attr("src")
			if !ok {
				continue
			}
			data, resolved := resolve(src)
			if !resolved {
				if opts.DropExternal && isExternalURL(src) {
					img.SetAttr("src", transparentPixel)
					rpt.Dropped = append(rpt.Dropped, src)
				}
				continue
			}
			img.SetAttr("src", dataURI(mimeFor(src), data))
			rpt.InlinedImages++
		}
	}

	// Pass 4: inline <style> elements may also carry url() references.
	for _, style := range doc.ByTag("style") {
		if len(style.Children) != 1 || style.Children[0].Type != htmlx.TextNode {
			continue
		}
		style.Children[0].Data = inlineCSSURLs(style.Children[0].Data, baseDir, site, rpt, record)
	}

	if failure != nil {
		return nil, rpt, failure
	}
	return doc, rpt, nil
}

// escapeEndTag writes every "</tag" in text, ASCII case-insensitively, as
// "<\/tag", so a resource inlined into a <tag> element cannot end it early:
// the rendered page parses back to the tree it was rendered from. The
// backslash escapes nothing in a JavaScript string or regular expression,
// nor in CSS.
func escapeEndTag(text, tag string) string {
	var b strings.Builder
	last := 0
	for i := 0; ; {
		j := strings.Index(text[i:], "</")
		if j < 0 {
			break
		}
		i += j + 2
		// Equal byte lengths admit only ASCII folds: the non-ASCII runes
		// that fold to a letter are multi-byte.
		if len(text)-i >= len(tag) && strings.EqualFold(text[i:i+len(tag)], tag) {
			b.WriteString(text[last : i-1])
			b.WriteByte('\\')
			last = i - 1
		}
	}
	if b.Len() == 0 {
		return text
	}
	b.WriteString(text[last:])
	return b.String()
}

// inlineCSSURLs rewrites url(...) references in CSS to data: URIs resolved
// against cssDir.
func inlineCSSURLs(css, cssDir string, site *webgen.Site, rpt *Report, record func(string) bool) string {
	var b strings.Builder
	rest := css
	for {
		idx := strings.Index(rest, "url(")
		if idx < 0 {
			b.WriteString(rest)
			return b.String()
		}
		b.WriteString(rest[:idx])
		end := strings.IndexByte(rest[idx:], ')')
		if end < 0 {
			b.WriteString(rest[idx:])
			return b.String()
		}
		ref := strings.TrimSpace(rest[idx+4 : idx+end])
		ref = strings.Trim(ref, `"'`)
		rest = rest[idx+end+1:]
		switch {
		case ref == "" || strings.HasPrefix(ref, "data:") || isExternalURL(ref):
			fmt.Fprintf(&b, "url(%s)", ref)
		default:
			data, ok := site.Get(path.Join(cssDir, ref))
			if !ok {
				record(ref)
				fmt.Fprintf(&b, "url(%s)", ref)
				continue
			}
			fmt.Fprintf(&b, "url(%s)", dataURI(mimeFor(ref), data))
			rpt.InlinedCSSURLs++
		}
	}
}

// transparentPixel is a 1x1 transparent GIF, used when dropping external
// images so layout keeps an img element.
const transparentPixel = "data:image/gif;base64,R0lGODlhAQABAIAAAAAAAP///yH5BAEAAAAALAAAAAABAAEAAAIBRAA7"

func isExternalURL(ref string) bool {
	lower := strings.ToLower(ref)
	return strings.HasPrefix(lower, "http://") ||
		strings.HasPrefix(lower, "https://") ||
		strings.HasPrefix(lower, "//")
}

func dataURI(mime string, data []byte) string {
	return "data:" + mime + ";base64," + base64.StdEncoding.EncodeToString(data)
}

// mimeFor guesses a MIME type from a file extension; the set covers what
// saved webpages contain.
func mimeFor(ref string) string {
	if i := strings.IndexAny(ref, "?#"); i >= 0 {
		ref = ref[:i]
	}
	switch strings.ToLower(path.Ext(ref)) {
	case ".png":
		return "image/png"
	case ".jpg", ".jpeg":
		return "image/jpeg"
	case ".gif":
		return "image/gif"
	case ".svg":
		return "image/svg+xml"
	case ".webp":
		return "image/webp"
	case ".ico":
		return "image/x-icon"
	case ".css":
		return "text/css"
	case ".js":
		return "text/javascript"
	case ".woff":
		return "font/woff"
	case ".woff2":
		return "font/woff2"
	case ".ttf":
		return "font/ttf"
	default:
		return "application/octet-stream"
	}
}

// replaceNode swaps old for new within old's parent.
func replaceNode(old, new *htmlx.Node) {
	parent := old.Parent
	if parent == nil {
		return
	}
	for i, c := range parent.Children {
		if c == old {
			new.Parent = parent
			parent.Children[i] = new
			old.Parent = nil
			return
		}
	}
}

func dropNode(n *htmlx.Node) {
	if n.Parent != nil {
		n.Parent.RemoveChild(n)
	}
}
