package server

import (
	"fmt"
	"html"
	"net/http"
	"strings"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/questionnaire"
)

// The dashboard renders a test's concluded results as a self-contained
// HTML page (GET /dashboard/{id}), giving experimenters the "collect the
// testing results" view without any client tooling. ?quality=1 applies
// the default quality-control battery.

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	testID := r.PathValue("id")
	info, err := s.loadInfo(testID)
	if err != nil {
		writeLoadError(w, err)
		return
	}
	res, err := s.folds.results(r.Context(), testID, r.URL.Query().Get("quality") == "1")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "concluding: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprint(w, renderDashboard(info, res))
}

// renderDashboard builds the results page.
func renderDashboard(info *TestInfo, res *Results) string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8"><title>Kaleidoscope results — `)
	b.WriteString(html.EscapeString(res.TestID))
	b.WriteString(`</title><style>
body { font-family: sans-serif; max-width: 860px; margin: 24px auto; color: #1b1b1b; }
table { border-collapse: collapse; width: 100%; margin-top: 12px; }
th, td { border: 1px solid #ccc; padding: 6px 10px; text-align: left; font-size: 14px; }
th { background: #f4f4f4; }
.bar { display: inline-block; height: 12px; background: #4b2e83; vertical-align: middle; }
.bar.same { background: #999; }
.bar.right { background: #2e834b; }
.meta { color: #555; }
.control { color: #888; font-style: italic; }
</style></head><body>`)
	fmt.Fprintf(&b, "<h1>%s</h1>", html.EscapeString(res.TestID))
	fmt.Fprintf(&b, `<p class="meta">%s</p>`, html.EscapeString(info.Description))
	fmt.Fprintf(&b, `<p class="meta">%d workers considered`, res.Workers)
	if res.Filtered {
		fmt.Fprintf(&b, " after quality control (%d dropped)", res.DroppedWorkers)
	} else {
		b.WriteString(` — raw (<a href="?quality=1">apply quality control</a>)`)
	}
	b.WriteString("</p>")
	for qi, q := range info.Questions {
		fmt.Fprintf(&b, "<p><b>Q%d.</b> %s</p>", qi+1, html.EscapeString(q))
	}
	b.WriteString("<table><tr><th>page</th><th>left</th><th>right</th><th>left votes</th><th>same</th><th>right votes</th><th>split</th></tr>")
	for _, page := range res.Pages {
		rowClass := ""
		if page.Kind == aggregator.KindControl {
			rowClass = ` class="control"`
		}
		t := page.Tally
		fmt.Fprintf(&b, "<tr%s><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td></tr>",
			rowClass,
			html.EscapeString(page.PageID),
			html.EscapeString(page.LeftName),
			html.EscapeString(page.RightName),
			t.Left, t.Same, t.Right,
			splitBar(t))
	}
	b.WriteString("</table></body></html>")
	return b.String()
}

// splitBar renders a three-segment proportion bar.
func splitBar(t questionnaire.Tally) string {
	total := t.Total()
	if total == 0 {
		return ""
	}
	const width = 180
	left := width * t.Left / total
	same := width * t.Same / total
	right := width - left - same
	return fmt.Sprintf(
		`<span class="bar" style="width:%dpx" title="left"></span><span class="bar same" style="width:%dpx" title="same"></span><span class="bar right" style="width:%dpx" title="right"></span>`,
		left, same, right)
}
