package extension

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/rank"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// startSortedServer prepares a 5-version sorted font test.
func startSortedServer(t *testing.T) (*httptest.Server, *server.Server, *aggregator.Prepared, []int) {
	t.Helper()
	sizes := []int{10, 12, 14, 18, 22}
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test := &params.Test{
		TestID:          "sorted-test",
		WebpageNum:      len(sizes),
		TestDescription: "sorted flow test",
		ParticipantNum:  5,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Sorted:          true,
	}
	sites := make(map[string]*webgen.Site)
	for _, pt := range sizes {
		path := fmt.Sprintf("wiki-%dpt", pt)
		test.Webpages = append(test.Webpages, params.Webpage{
			WebPath: path, WebPageLoad: params.PageLoadSpec{UniformMillis: 500}, WebMainFile: "index.html",
		})
		sites[path] = webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: pt})
	}
	prep, err := agg.Prepare(test, sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, prep, sizes
}

// TestRunnerSortedFlow: on a test served as sorted, the Runner visits only
// the pairs its binary insertion asks about, and every control page.
func TestRunnerSortedFlow(t *testing.T) {
	ts, srv, prep, sizes := startSortedServer(t)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	runner := &Runner{Client: client, Worker: diligentWorker(rng), Answer: AnswerFontSize(), RNG: rng}
	session, outcome, err := runner.Run("sorted-test")
	if err != nil || outcome != UploadStored {
		t.Fatalf("Run: %v, %v", outcome, err)
	}
	// Fewer comparisons than the full round-robin.
	full := rank.PairCount(len(sizes))
	if len(session.Responses) >= full {
		t.Errorf("sorted flow used %d comparisons, full is %d", len(session.Responses), full)
	}
	order, err := SortedRanking(session.Responses, len(sizes))
	if err != nil || len(order) != len(sizes) {
		t.Fatalf("ranking = %v, %v", order, err)
	}
	// Controls still visited.
	if len(session.Controls) != len(prep.ControlPages()) {
		t.Errorf("controls = %d, want %d", len(session.Controls), len(prep.ControlPages()))
	}
	// The diligent 12pt-preferring worker ranks 12pt (index 1) top.
	if order[0] != 1 {
		t.Errorf("top = %dpt (%v), want 12pt", sizes[order[0]], order)
	}
	// 22pt is last.
	if order[len(sizes)-1] != 4 {
		t.Errorf("worst = %dpt (%v), want 22pt", sizes[order[len(sizes)-1]], order)
	}
	// Session uploaded.
	stored, err := srv.Sessions("sorted-test")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 {
		t.Errorf("stored = %d", len(stored))
	}
	// Behaviors cover visited pages: comparisons + controls.
	wantBehaviors := len(session.Responses) + len(session.Controls)
	if len(session.Behaviors) != wantBehaviors {
		t.Errorf("behaviors = %d, want %d", len(session.Behaviors), wantBehaviors)
	}
	// A replay holds the responses to the pairs the sort visits, in order.
	for name, responses := range map[string][]questionnaire.Response{
		"truncated": session.Responses[:len(session.Responses)-1],
		"extended":  append(slices.Clone(session.Responses), session.Responses[0]),
		"reordered": append([]questionnaire.Response{session.Responses[1], session.Responses[0]}, session.Responses[2:]...),
	} {
		if order, err := SortedRanking(responses, len(sizes)); err == nil {
			t.Errorf("%s session replayed to %v", name, order)
		}
	}
}

// TestRunnerSortedRequiresOneQuestion: the sorted flow compares on one
// question; a sorted test asking two is refused before any page is fetched.
func TestRunnerSortedRequiresOneQuestion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/tests/sorted-test" {
			t.Errorf("fetched %s", r.URL.Path)
		}
		fmt.Fprint(w, `{"test_id":"sorted-test","questions":["q one?","q two?"],"sorted":true}`)
	}))
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	runner := &Runner{Client: client, Worker: diligentWorker(rng), Answer: AnswerFontSize(), RNG: rng}
	if _, _, err := runner.Run("sorted-test"); err == nil {
		t.Error("multi-question sorted flow should fail")
	}
}

// TestSortedRunnerValidation: a Runner missing a part is refused on a
// sorted test as on any other, before its flow uploads anything.
func TestSortedRunnerValidation(t *testing.T) {
	ts, srv, _, _ := startSortedServer(t)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	w := diligentWorker(rng)
	for name, r := range map[string]*Runner{
		"empty":          {},
		"missing worker": {Client: client, Answer: AnswerFontSize(), RNG: rng},
		"missing answer": {Client: client, Worker: w, RNG: rng},
		"missing rng":    {Client: client, Worker: w, Answer: AnswerFontSize()},
	} {
		if _, _, err := r.Run("sorted-test"); err == nil {
			t.Errorf("%s runner should fail", name)
		}
	}
	stored, err := srv.Sessions("sorted-test")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 0 {
		t.Errorf("refused runners stored %d sessions", len(stored))
	}
}

func TestChoiceOutcomeMapping(t *testing.T) {
	if choiceToOutcome(questionnaire.ChoiceLeft) != rank.OutcomeA {
		t.Error("left should map to A")
	}
	if choiceToOutcome(questionnaire.ChoiceRight) != rank.OutcomeB {
		t.Error("right should map to B")
	}
	if choiceToOutcome(questionnaire.ChoiceSame) != rank.OutcomeTie {
		t.Error("same should map to tie")
	}
	if mirrorOutcome(rank.OutcomeA) != rank.OutcomeB || mirrorOutcome(rank.OutcomeB) != rank.OutcomeA {
		t.Error("mirror should swap A/B")
	}
	if mirrorOutcome(rank.OutcomeTie) != rank.OutcomeTie {
		t.Error("tie mirrors to itself")
	}
}

func TestParsePairPageID(t *testing.T) {
	tests := []struct {
		id   string
		i, j int
		ok   bool
	}{
		{"pair-0-1", 0, 1, true},
		{"pair-2-4", 2, 4, true},
		{"pair-1-1", 0, 0, false}, // j must exceed i
		{"pair-3-1", 0, 0, false},
		{"control-same", 0, 0, false},
		{"pair-a-b", 0, 0, false},
	}
	for _, tt := range tests {
		i, j, ok := parsePairPageID(tt.id)
		if ok != tt.ok || (ok && (i != tt.i || j != tt.j)) {
			t.Errorf("parsePairPageID(%q) = %d,%d,%v", tt.id, i, j, ok)
		}
	}
}

func TestIndexPairs(t *testing.T) {
	pages := []server.PageView{
		{ID: "pair-0-1", Kind: aggregator.KindReal, LeftName: "a", RightName: "b"},
		{ID: "pair-0-2", Kind: aggregator.KindReal, LeftName: "a", RightName: "c"},
		{ID: "pair-1-2", Kind: aggregator.KindReal, LeftName: "b", RightName: "c"},
		{ID: "control-same", Kind: aggregator.KindControl},
	}
	pairs, names, err := indexPairs(pages)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 || len(names) != 3 {
		t.Fatalf("pairs=%d names=%v", len(pairs), names)
	}
	if names[0] != "a" || names[2] != "c" {
		t.Errorf("names = %v", names)
	}
	// Gap in indices fails.
	if _, _, err := indexPairs([]server.PageView{
		{ID: "pair-0-2", Kind: aggregator.KindReal, LeftName: "a", RightName: "c"},
	}); err == nil {
		t.Error("missing version index should fail")
	}
	// Bad id fails.
	if _, _, err := indexPairs([]server.PageView{
		{ID: "weird", Kind: aggregator.KindReal},
	}); err == nil {
		t.Error("bad page id should fail")
	}
}
