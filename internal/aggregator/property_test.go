package aggregator

import (
	"fmt"
	"testing"

	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/pageload"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// TestEveryPreparedPageReconstructs: for an N-version test, every
// integrated page (real and control) reconstructs from the blob store,
// parses, carries two iframes, and both sides expose an extractable
// injected replay spec — the invariants the extension flow depends on.
func TestEveryPreparedPageReconstructs(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			db := store.OpenMemory()
			blobs := store.NewBlobStore()
			agg, err := New(db, blobs)
			if err != nil {
				t.Fatal(err)
			}
			test := &params.Test{
				TestID:          fmt.Sprintf("prop-%d", n),
				WebpageNum:      n,
				TestDescription: "property test",
				ParticipantNum:  1,
				Questions:       []string{"q?"},
			}
			sites := make(map[string]*webgen.Site)
			for i := 0; i < n; i++ {
				path := fmt.Sprintf("v%d", i)
				test.Webpages = append(test.Webpages, params.Webpage{
					WebPath:     path,
					WebPageLoad: params.PageLoadSpec{UniformMillis: 1000 * (i + 1)},
					WebMainFile: "index.html",
				})
				sites[path] = webgen.WikiArticle(webgen.WikiConfig{Seed: int64(i + 1), Sections: 2, ParagraphsPerSection: 1})
			}
			prep, err := agg.Prepare(test, sites, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantReal := n * (n - 1) / 2
			if len(prep.RealPages()) != wantReal {
				t.Fatalf("real pages = %d, want %d", len(prep.RealPages()), wantReal)
			}
			for _, page := range prep.Pages {
				index := htmlx.Parse(string(pageFile(t, blobs, test.TestID, page.ID, "index.html")))
				if got := len(index.ByTag("iframe")); got != 2 {
					t.Fatalf("page %s iframes = %d", page.ID, got)
				}
				for _, side := range []string{"left.html", "right.html"} {
					doc := htmlx.Parse(string(pageFile(t, blobs, test.TestID, page.ID, side)))
					if _, err := pageload.ExtractSpec(doc); err != nil {
						t.Fatalf("page %s %s: %v", page.ID, side, err)
					}
					if doc.Body() == nil {
						t.Fatalf("page %s %s has no body", page.ID, side)
					}
				}
			}
			// The stored metadata round-trips too.
			loaded, err := LoadPrepared(db, test.TestID)
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded.Pages) != len(prep.Pages) {
				t.Fatalf("loaded pages = %d, want %d", len(loaded.Pages), len(prep.Pages))
			}
		})
	}
}
