package aggregator

import (
	"errors"
	"math"
	"strings"
	"testing"

	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/pageload"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

func fontTestInput(t *testing.T) (*params.Test, map[string]*webgen.Site) {
	t.Helper()
	sizes := []int{10, 12, 14}
	test := &params.Test{
		TestID:          "font-test",
		WebpageNum:      len(sizes),
		TestDescription: "font size study",
		ParticipantNum:  100,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
	}
	sites := make(map[string]*webgen.Site)
	for _, pt := range sizes {
		path := map[int]string{10: "wiki-10pt", 12: "wiki-12pt", 14: "wiki-14pt"}[pt]
		test.Webpages = append(test.Webpages, params.Webpage{
			WebPath:        path,
			WebPageLoad:    params.PageLoadSpec{UniformMillis: 3000},
			WebMainFile:    "index.html",
			WebDescription: path,
		})
		sites[path] = webgen.WikiArticle(webgen.WikiConfig{Seed: 42, FontSizePt: pt})
	}
	return test, sites
}

func newAggregator(t *testing.T) (*Aggregator, *store.DB, *store.BlobStore) {
	t.Helper()
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := New(db, blobs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return agg, db, blobs
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, store.NewBlobStore()); err == nil {
		t.Error("nil db should fail")
	}
	if _, err := New(store.OpenMemory(), nil); err == nil {
		t.Error("nil blobs should fail")
	}
}

func TestPrepareBasic(t *testing.T) {
	agg, db, blobs := newAggregator(t)
	test, sites := fontTestInput(t)
	prep, err := agg.Prepare(test, sites, nil)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// C(3,2)=3 real pairs + 1 identical control.
	if len(prep.RealPages()) != 3 {
		t.Errorf("real pages = %d, want 3", len(prep.RealPages()))
	}
	if len(prep.ControlPages()) != 1 {
		t.Errorf("control pages = %d, want 1", len(prep.ControlPages()))
	}
	ctl := prep.ControlPages()[0]
	if ctl.Expected != questionnaire.ChoiceSame {
		t.Errorf("identical control expected = %q", ctl.Expected)
	}
	// DB state: one test doc, 4 page docs.
	if db.Collection(TestsCollection).Count() != 1 {
		t.Error("test doc missing")
	}
	if db.Collection(PagesCollection).Count() != 4 {
		t.Errorf("page docs = %d", db.Collection(PagesCollection).Count())
	}
	// Blob state: each page folder holds the page's three files.
	for _, p := range prep.Pages {
		for _, f := range []string{"index.html", "left.html", "right.html"} {
			if _, err := blobs.Get(test.TestID + "/" + p.ID + "/" + f); err != nil {
				t.Errorf("page %s missing %s: %v", p.ID, f, err)
			}
		}
	}
}

// pageFile reads one file of a stored integrated page.
func pageFile(t *testing.T, blobs *store.BlobStore, testID, pageID, file string) []byte {
	t.Helper()
	data, err := blobs.Get(testID + "/" + pageID + "/" + file)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestIntegratedPageShape(t *testing.T) {
	agg, _, blobs := newAggregator(t)
	test, sites := fontTestInput(t)
	prep, err := agg.Prepare(test, sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := htmlx.Parse(string(pageFile(t, blobs, test.TestID, prep.Pages[0].ID, "index.html")))
	iframes := doc.ByTag("iframe")
	if len(iframes) != 2 {
		t.Fatalf("iframes = %d, want 2 (side by side)", len(iframes))
	}
	if iframes[0].AttrOr("src", "") != "left.html" || iframes[1].AttrOr("src", "") != "right.html" {
		t.Errorf("iframe srcs = %q, %q", iframes[0].AttrOr("src", ""), iframes[1].AttrOr("src", ""))
	}

	// Each side is a self-contained single file with the injected spec.
	leftDoc := htmlx.Parse(string(pageFile(t, blobs, test.TestID, prep.Pages[0].ID, "left.html")))
	spec, err := pageload.ExtractSpec(leftDoc)
	if err != nil {
		t.Fatalf("left page lacks injected spec: %v", err)
	}
	if spec.UniformMillis != 3000 {
		t.Errorf("injected spec = %+v, want uniform 3000", spec)
	}
	for _, link := range leftDoc.ByTag("link") {
		if strings.EqualFold(link.AttrOr("rel", ""), "stylesheet") {
			t.Error("left page should have no external stylesheets")
		}
	}
	for _, img := range leftDoc.ByTag("img") {
		if !strings.HasPrefix(img.AttrOr("src", ""), "data:") {
			t.Errorf("left page has non-inlined image %q", img.AttrOr("src", ""))
		}
	}
}

func TestPrepareWithExtraControls(t *testing.T) {
	agg, _, _ := newAggregator(t)
	test, sites := fontTestInput(t)
	tiny := webgen.WikiArticle(webgen.WikiConfig{Seed: 42, FontSizePt: 4})
	normal := webgen.WikiArticle(webgen.WikiConfig{Seed: 42, FontSizePt: 12})
	prep, err := agg.Prepare(test, sites, []ControlPair{{
		Name: "extreme-font", Left: tiny, Right: normal, Expected: questionnaire.ChoiceRight,
	}})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	controls := prep.ControlPages()
	if len(controls) != 2 {
		t.Fatalf("controls = %d, want 2", len(controls))
	}
	if controls[1].Expected != questionnaire.ChoiceRight {
		t.Errorf("extreme control expected = %q", controls[1].Expected)
	}
}

func TestPrepareErrors(t *testing.T) {
	agg, _, _ := newAggregator(t)
	test, sites := fontTestInput(t)

	bad := *test
	bad.TestID = ""
	if _, err := agg.Prepare(&bad, sites, nil); err == nil {
		t.Error("invalid params should fail")
	}

	delete(sites, "wiki-12pt")
	if _, err := agg.Prepare(test, sites, nil); err == nil {
		t.Error("missing site should fail")
	}

	test2, sites2 := fontTestInput(t)
	if _, err := agg.Prepare(test2, sites2, []ControlPair{{
		Left: sites2["wiki-10pt"], Right: sites2["wiki-12pt"], Expected: "banana",
	}}); err == nil {
		t.Error("invalid control expectation should fail")
	}
}

func TestLoadPrepared(t *testing.T) {
	agg, db, _ := newAggregator(t)
	test, sites := fontTestInput(t)
	orig, err := agg.Prepare(test, sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPrepared(db, test.TestID)
	if err != nil {
		t.Fatalf("LoadPrepared: %v", err)
	}
	if loaded.Test.TestID != test.TestID || loaded.Test.ParticipantNum != test.ParticipantNum {
		t.Errorf("loaded test = %+v", loaded.Test)
	}
	if len(loaded.Pages) != len(orig.Pages) {
		t.Fatalf("loaded pages = %d, want %d", len(loaded.Pages), len(orig.Pages))
	}
	// Page metadata round-trips.
	byID := map[string]IntegratedPage{}
	for _, p := range loaded.Pages {
		byID[p.ID] = p
	}
	for _, p := range orig.Pages {
		got, ok := byID[p.ID]
		if !ok {
			t.Fatalf("page %s lost", p.ID)
		}
		if got != p {
			t.Errorf("page %s = %+v, want %+v", p.ID, got, p)
		}
	}
}

func TestLoadPreparedMissing(t *testing.T) {
	db := store.OpenMemory()
	if _, err := LoadPrepared(db, "ghost"); err == nil {
		t.Error("missing test should fail")
	}
}

func TestControlPageUsesInstantLoad(t *testing.T) {
	agg, _, blobs := newAggregator(t)
	test, sites := fontTestInput(t)
	tiny := webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 4})
	normal := webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 12})
	prep, err := agg.Prepare(test, sites, []ControlPair{{
		Left: tiny, Right: normal, Expected: questionnaire.ChoiceRight,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The identical control reuses version 0's spec; extra controls load
	// instantly (spec zero).
	var extraID string
	for _, p := range prep.ControlPages() {
		if p.ID != "control-same" {
			extraID = p.ID
		}
	}
	leftHTML := pageFile(t, blobs, test.TestID, extraID, "left.html")
	spec, err := pageload.ExtractSpec(htmlx.Parse(string(leftHTML)))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.IsUniform() || spec.UniformMillis != 0 {
		t.Errorf("extra control spec = %+v, want instant", spec)
	}
}

// TestParsePairPageID: every id PairPageID writes reads back as its
// versions, and nothing else reads as a real page's id.
func TestParsePairPageID(t *testing.T) {
	for _, v := range [][2]int{{0, 1}, {2, 4}, {3, 14}} {
		id := PairPageID(v[0], v[1])
		if i, j, ok := ParsePairPageID(id); !ok || i != v[0] || j != v[1] {
			t.Errorf("ParsePairPageID(%q) = %d, %d, %v; want %d, %d, true", id, i, j, ok, v[0], v[1])
		}
	}
	for _, id := range []string{"pair-1-0", "pair-1-1", "pair-a-b", "pair-1", "pair-", "control-same", "pair-+1-2", "pair-01-2", "pair-1-2-3"} {
		if i, j, ok := ParsePairPageID(id); ok {
			t.Errorf("ParsePairPageID(%q) = %d, %d, true; want false", id, i, j)
		}
	}
}

// TestLongestTestIDFitsTheDirStore: a test id as long as params.Validate
// allows prepares on a directory blob store, where each file is named by its
// whole key, and so does the longest page id any test can have; one byte
// more is refused before anything is stored.
func TestLongestTestIDFitsTheDirStore(t *testing.T) {
	blobs, err := store.OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := New(store.OpenMemory(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	test, sites := fontTestInput(t)
	test.TestID = strings.Repeat("x", params.MaxTestIDBytes-3) + "%"
	if _, err := agg.Prepare(test, sites, nil); err != nil {
		t.Fatalf("Prepare with a %d-byte test id: %v", params.MaxTestIDBytes, err)
	}
	longest := test.TestID + "/" + PairPageID(math.MaxInt, math.MaxInt) + "/index.html"
	if err := blobs.Put(longest, []byte("page")); err != nil {
		t.Fatalf("the longest key a test can have: %v", err)
	}

	test.TestID = "y" + test.TestID
	if _, err := agg.Prepare(test, sites, nil); !errors.Is(err, params.ErrTestIDTooLong) {
		t.Fatalf("Prepare with a test id one byte too long: %v, want ErrTestIDTooLong", err)
	}
	if keys, err := blobs.List("y"); err != nil || len(keys) != 0 {
		t.Errorf("the refused Prepare stored %v (%v)", keys, err)
	}
}
