package extension

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/inline"
	"kaleidoscope/internal/pageload"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/render"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// startServer prepares a font test (12pt left-ish version vs 22pt) and
// returns a running test server plus the prepared pages.
func startServer(t *testing.T) (*httptest.Server, *server.Server, *aggregator.Prepared) {
	t.Helper()
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test := &params.Test{
		TestID:          "ext-test",
		WebpageNum:      2,
		TestDescription: "extension flow test",
		ParticipantNum:  5,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "wiki-12", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: "wiki-22", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
	sites := map[string]*webgen.Site{
		"wiki-12": webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: 12}),
		"wiki-22": webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: 22}),
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
	return ts, srv, prep
}

func diligentWorker(rng *rand.Rand) *crowd.Worker {
	pop, err := crowd.InLabPopulation(20, rng)
	if err != nil {
		panic(err)
	}
	for _, w := range pop.Workers {
		if w.Archetype != crowd.Diligent {
			continue
		}
		w.PreferredFontPt = 12
		w.FontTolerance = 3
		return w
	}
	panic("no diligent worker in in-lab population of 20")
}

func TestNewClientErrors(t *testing.T) {
	if _, err := NewClient("", nil); err == nil {
		t.Error("empty base URL should fail")
	}
}

func TestClientTestInfo(t *testing.T) {
	ts, _, prep := startServer(t)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := client.TestInfo("ext-test")
	if err != nil {
		t.Fatalf("TestInfo: %v", err)
	}
	if info.TestID != "ext-test" || len(info.Pages) != len(prep.Pages) {
		t.Errorf("info = %+v", info)
	}
	if _, err := client.TestInfo("ghost"); err == nil {
		t.Error("unknown test should fail")
	}
}

func TestClientFetchPageFile(t *testing.T) {
	ts, _, prep := startServer(t)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := client.FetchPageFile("ext-test", prep.Pages[0].ID, "left.html")
	if err != nil {
		t.Fatalf("FetchPageFile: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("empty page")
	}
	if _, err := client.FetchPageFile("ext-test", prep.Pages[0].ID, "ghost.html"); err == nil {
		t.Error("missing file should fail")
	}
}

// TestRunnerFullFlow is the end-to-end Fig. 3 exercise: a diligent worker
// runs the whole test over HTTP and the server stores a complete,
// sensible session.
func TestRunnerFullFlow(t *testing.T) {
	ts, srv, prep := startServer(t)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	runner := &Runner{
		Client: client,
		Worker: diligentWorker(rng),
		Answer: AnswerFontSize(),
		RNG:    rng,
	}
	session, outcome, err := runner.Run("ext-test")
	if err != nil || outcome != UploadStored {
		t.Fatalf("Run: %v, %v", outcome, err)
	}
	// One real pair + one control page = 2 behaviors; 1 response; 1 control.
	if len(session.Responses) != len(prep.RealPages()) {
		t.Errorf("responses = %d, want %d", len(session.Responses), len(prep.RealPages()))
	}
	if len(session.Behaviors) != len(prep.Pages) {
		t.Errorf("behaviors = %d, want %d", len(session.Behaviors), len(prep.Pages))
	}
	if len(session.Controls) != len(prep.ControlPages()) {
		t.Errorf("controls = %d, want %d", len(session.Controls), len(prep.ControlPages()))
	}
	// The diligent 12pt-preferring worker picks the 12pt side (left).
	if session.Responses[0].Choice != questionnaire.ChoiceLeft {
		t.Errorf("choice = %q, want left (12pt)", session.Responses[0].Choice)
	}
	// Control on identical pages comes back Same for a careful worker.
	if session.Controls[0].Got != questionnaire.ChoiceSame {
		t.Errorf("control answer = %q", session.Controls[0].Got)
	}
	// Server has it.
	stored, err := srv.Sessions("ext-test")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || stored[0].WorkerID != session.WorkerID {
		t.Errorf("stored sessions = %+v", stored)
	}
}

func TestRunnerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := diligentWorker(rng)
	r := &Runner{}
	if _, _, err := r.Run("x"); err == nil {
		t.Error("empty runner should fail")
	}
	client, _ := NewClient("http://127.0.0.1:0", nil)
	r = &Runner{Client: client, Worker: w, Answer: AnswerFontSize()}
	if _, _, err := r.Run("x"); err == nil {
		t.Error("missing rng should fail")
	}
}

func TestMainFontSizePt(t *testing.T) {
	for _, pt := range []int{10, 14, 22} {
		site := webgen.WikiArticle(webgen.WikiConfig{Seed: 3, FontSizePt: pt})
		doc, _, err := inline.Tree(site)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := MainFontSizePt(doc)
		if !ok {
			t.Fatalf("pt=%d: extraction failed", pt)
		}
		if math.Abs(got-float64(pt)) > 0.01 {
			t.Errorf("extracted %vpt, want %d", got, pt)
		}
	}
	// Page without paragraphs.
	if _, ok := MainFontSizePt(htmlx.Parse("<html><body><div>x</div></body></html>")); ok {
		t.Error("no paragraphs should report !ok")
	}
}

func TestButtonSalience(t *testing.T) {
	a, b := webgen.GroupPageVersions(webgen.GroupConfig{Seed: 4})
	docA, _, err := inline.Tree(a)
	if err != nil {
		t.Fatal(err)
	}
	docB, _, err := inline.Tree(b)
	if err != nil {
		t.Fatal(err)
	}
	salA, okA := ButtonSalience(docA)
	salB, okB := ButtonSalience(docB)
	if !okA || !okB {
		t.Fatal("salience extraction failed")
	}
	if salB <= salA {
		t.Errorf("variant salience %v should exceed original %v", salB, salA)
	}
	if _, ok := ButtonSalience(htmlx.Parse("<html><body></body></html>")); ok {
		t.Error("page without button should report !ok")
	}
}

func TestAnswerByQuestionRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := diligentWorker(rng)
	called := ""
	mk := func(name string) AnswerFunc {
		return func(*crowd.Worker, *PageContext, string, *rand.Rand) (questionnaire.Choice, string) {
			called = name
			return questionnaire.ChoiceSame, ""
		}
	}
	routed := AnswerByQuestion(map[string]AnswerFunc{
		"font size": mk("font"),
		"visible":   mk("visibility"),
	}, mk("fallback"))
	ctx := &PageContext{}
	routed(w, ctx, "Which webpage's FONT SIZE is more suitable?", rng)
	if called != "font" {
		t.Errorf("routed to %q", called)
	}
	routed(w, ctx, "which version of the button is more visible?", rng)
	if called != "visibility" {
		t.Errorf("routed to %q", called)
	}
	routed(w, ctx, "completely unrelated question", rng)
	if called != "fallback" {
		t.Errorf("routed to %q", called)
	}
	// No fallback: answers Same.
	noFb := AnswerByQuestion(nil, nil)
	choice, _ := noFb(w, ctx, "anything", rng)
	if choice != questionnaire.ChoiceSame {
		t.Errorf("no-fallback choice = %q", choice)
	}
}

// buildReplaySide inlines the site and simulates a replay with the main
// text at contentMs and the nav bar at navMs.
func buildReplaySide(t *testing.T, site *webgen.Site, contentMs, navMs int) (*htmlx.Node, *pageload.Replay) {
	t.Helper()
	doc, _, err := inline.Tree(site)
	if err != nil {
		t.Fatal(err)
	}
	spec := params.PageLoadSpec{Schedule: []params.SelectorTime{
		{Selector: "#content", Millis: contentMs},
		{Selector: "#navbar", Millis: navMs},
		{Selector: "#infobox", Millis: 4000},
	}}
	play, err := pageload.Simulate(doc, styleOf(doc), render.DefaultViewport(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return doc, play
}

func TestAnswerReadinessUsesReplays(t *testing.T) {
	site := webgen.WikiArticle(webgen.WikiConfig{Seed: 9})
	rng := rand.New(rand.NewSource(11))
	w := diligentWorker(rng)
	leftDoc, leftPlay := buildReplaySide(t, site, 4000, 2000)   // content slow
	rightDoc, rightPlay := buildReplaySide(t, site, 2000, 4000) // content fast
	ctx := &PageContext{
		Left: leftDoc, Right: rightDoc,
		LeftPlay: leftPlay, RightPlay: rightPlay,
	}
	fn := AnswerReadiness()
	rightWins := 0
	for i := 0; i < 100; i++ {
		choice, _ := fn(w, ctx, "which version seems ready to use first?", rng)
		if choice == questionnaire.ChoiceRight {
			rightWins++
		}
	}
	if rightWins < 55 {
		t.Errorf("text-first side won only %d/100", rightWins)
	}
}

// TestClientRetriesTransientFailures verifies idempotent GETs survive 5xx
// blips but give up on persistent failure, and never retry 4xx.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls, notFoundCalls int
	mux := http.NewServeMux()
	mux.HandleFunc("/flaky", func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte("ok")); err != nil {
			t.Error(err)
		}
	})
	mux.HandleFunc("/gone", func(w http.ResponseWriter, r *http.Request) {
		notFoundCalls++
		w.WriteHeader(http.StatusNotFound)
	})
	mux.HandleFunc("/always500", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := client.get("/flaky")
	if err != nil {
		t.Fatalf("flaky GET should recover: %v", err)
	}
	if string(body) != "ok" || calls != 3 {
		t.Errorf("body=%q calls=%d", body, calls)
	}
	if _, err := client.get("/gone"); err == nil {
		t.Error("404 should fail")
	}
	if notFoundCalls != 1 {
		t.Errorf("4xx retried %d times, want 1 attempt", notFoundCalls)
	}
	if _, err := client.get("/always500"); err == nil {
		t.Error("persistent 500 should eventually fail")
	}
}

func TestSalienceAnswerFamily(t *testing.T) {
	a, b := webgen.GroupPageVersions(webgen.GroupConfig{Seed: 6})
	left, _, err := inline.Tree(a)
	if err != nil {
		t.Fatal(err)
	}
	right, _, err := inline.Tree(b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &PageContext{
		Left:  left,
		Right: right,
	}
	rng := rand.New(rand.NewSource(40))
	w := diligentWorker(rng)

	count := func(fn AnswerFunc) (right, same int) {
		for i := 0; i < 200; i++ {
			choice, _ := fn(w, ctx, "q", rng)
			switch choice {
			case questionnaire.ChoiceRight:
				right++
			case questionnaire.ChoiceSame:
				same++
			}
		}
		return right, same
	}
	visRight, _ := count(AnswerButtonVisibility())
	looksRight, _ := count(AnswerButtonLooks())
	_, appealSame := count(AnswerOverallAppeal())
	// Visibility is the most decisive channel; appeal is dominated by Same.
	if visRight < looksRight-20 {
		t.Errorf("visibility right=%d should be >= looks right=%d", visRight, looksRight)
	}
	if visRight < 80 {
		t.Errorf("visibility right=%d/200, variant should clearly win", visRight)
	}
	if appealSame < 80 {
		t.Errorf("appeal same=%d/200, should be dominated by Same", appealSame)
	}

	// Pages without buttons answer Same deterministically.
	empty := &PageContext{Left: htmlx.Parse("<body></body>"), Right: htmlx.Parse("<body></body>")}
	choice, _ := AnswerButtonVisibility()(w, empty, "q", rng)
	if choice != questionnaire.ChoiceSame {
		t.Errorf("missing buttons choice = %q", choice)
	}
}

func TestUploadSessionErrors(t *testing.T) {
	ts, _, _ := startServer(t)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Upload rejected by the server (unknown test id in the URL).
	_, err = client.UploadSession("ghost", server.SessionUpload{TestID: "ghost", WorkerID: "w"})
	if err == nil {
		t.Error("upload to unknown test should fail")
	}
	// Transport failure.
	dead, err := NewClient("http://127.0.0.1:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.UploadSession("x", server.SessionUpload{}); err == nil {
		t.Error("dead server should fail")
	}
}
