package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// prepTest prepares a 2-version test in fresh storage and returns the
// server plus prepared metadata. Extra options (replication status, guard)
// are passed through to New.
func prepTest(t testing.TB, opts ...Option) (*Server, *aggregator.Prepared) {
	t.Helper()
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test := &params.Test{
		TestID:          "srv-test",
		WebpageNum:      2,
		TestDescription: "server test",
		ParticipantNum:  10,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "a", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: "b", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
	sites := map[string]*webgen.Site{
		"a": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 12}),
		"b": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 22}),
	}
	prep, err := agg.Prepare(test, sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, blobs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, prep
}

func doJSON(t *testing.T, srv *Server, method, path string, body []byte, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s: %v (body %s)", method, path, err, rec.Body.String())
		}
	}
	return rec
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, store.NewBlobStore()); err == nil {
		t.Error("nil db should fail")
	}
	if _, err := New(store.OpenMemory(), nil); err == nil {
		t.Error("nil blobs should fail")
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := prepTest(t)
	rec := doJSON(t, srv, http.MethodGet, "/healthz", nil, nil)
	if rec.Code != http.StatusOK {
		t.Errorf("healthz = %d", rec.Code)
	}
}

func TestTestInfoEndpoint(t *testing.T) {
	srv, prep := prepTest(t)
	var info TestInfo
	rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test", nil, &info)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if info.TestID != "srv-test" || len(info.Questions) != 1 {
		t.Errorf("info = %+v", info)
	}
	if len(info.Pages) != len(prep.Pages) {
		t.Errorf("pages = %d, want %d", len(info.Pages), len(prep.Pages))
	}
	rec = doJSON(t, srv, http.MethodGet, "/api/tests/ghost", nil, nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing test status = %d", rec.Code)
	}
}

func TestTaskEndpoint(t *testing.T) {
	srv, _ := prepTest(t)
	var task Task
	rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/task", nil, &task)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if task.RequiredWorkers != 10 || task.PageCount != 2 || task.TestID != "srv-test" {
		t.Errorf("task = %+v", task)
	}
}

func TestPageFileEndpoint(t *testing.T) {
	srv, prep := prepTest(t)
	pageID := prep.Pages[0].ID
	req := httptest.NewRequest(http.MethodGet, "/api/tests/srv-test/pages/"+pageID+"/index.html", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "kscope-left") {
		t.Error("index should contain the left iframe")
	}
	// left.html exists too.
	rec2 := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/pages/"+pageID+"/left.html", nil, nil)
	if rec2.Code != http.StatusOK {
		t.Errorf("left.html status = %d", rec2.Code)
	}
	// Missing file 404s.
	rec3 := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/pages/"+pageID+"/nope.html", nil, nil)
	if rec3.Code != http.StatusNotFound {
		t.Errorf("missing file status = %d", rec3.Code)
	}
	// Path traversal is rejected.
	req4 := httptest.NewRequest(http.MethodGet, "/api/tests/srv-test/pages/"+pageID+"/../../escape", nil)
	rec4 := httptest.NewRecorder()
	srv.ServeHTTP(rec4, req4)
	if rec4.Code == http.StatusOK {
		t.Error("traversal should not succeed")
	}
}

func sampleUpload(prep *aggregator.Prepared, workerID string, choice questionnaire.Choice) SessionUpload {
	up := SessionUpload{
		TestID:   "srv-test",
		WorkerID: workerID,
		Demographics: crowd.Demographics{
			Gender: "female", AgeBand: "25-34", Country: "US", TechAbility: 4,
		},
	}
	for _, p := range prep.RealPages() {
		up.Responses = append(up.Responses, questionnaire.Response{
			TestID: "srv-test", WorkerID: workerID, PageID: p.ID,
			QuestionID: "q0", Choice: choice, DurationMillis: 20000,
		})
		up.Behaviors = append(up.Behaviors, crowd.Behavior{TimeOnTaskMillis: 20000, CreatedTabs: 1, ActiveTabSwitches: 3})
	}
	for _, p := range prep.ControlPages() {
		up.Controls = append(up.Controls, quality.ControlOutcome{
			PageID: p.ID, Expected: p.Expected, Got: p.Expected,
		})
		up.Behaviors = append(up.Behaviors, crowd.Behavior{TimeOnTaskMillis: 15000, CreatedTabs: 1, ActiveTabSwitches: 2})
	}
	return up
}

func TestSessionUploadAndResults(t *testing.T) {
	srv, prep := prepTest(t)
	for i, choice := range []questionnaire.Choice{questionnaire.ChoiceLeft, questionnaire.ChoiceLeft, questionnaire.ChoiceRight} {
		up := sampleUpload(prep, "w"+string(rune('0'+i)), choice)
		payload, err := json.Marshal(up)
		if err != nil {
			t.Fatal(err)
		}
		rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
		if rec.Code != http.StatusCreated {
			t.Fatalf("upload status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	var res Results
	rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("results status = %d", rec.Code)
	}
	if res.Workers != 3 || res.Filtered {
		t.Errorf("results = %+v", res)
	}
	var realPage *PageResult
	for i := range res.Pages {
		if res.Pages[i].Kind == aggregator.KindReal {
			realPage = &res.Pages[i]
		}
	}
	if realPage == nil {
		t.Fatal("no real page in results")
	}
	if realPage.Tally.Left != 2 || realPage.Tally.Right != 1 {
		t.Errorf("tally = %+v", realPage.Tally)
	}
}

func TestResultsWithQualityControl(t *testing.T) {
	srv, prep := prepTest(t)
	// Two good workers and one hasty worker (fails engagement + control).
	for _, id := range []string{"good1", "good2"} {
		up := sampleUpload(prep, id, questionnaire.ChoiceLeft)
		payload, _ := json.Marshal(up)
		if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
			t.Fatalf("upload: %d", rec.Code)
		}
	}
	bad := sampleUpload(prep, "hasty", questionnaire.ChoiceRight)
	for i := range bad.Behaviors {
		bad.Behaviors[i].TimeOnTaskMillis = 800
	}
	bad.Controls[0].Got = questionnaire.ChoiceLeft
	payload, _ := json.Marshal(bad)
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d", rec.Code)
	}

	var raw Results
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &raw)
	if raw.Workers != 3 {
		t.Errorf("raw workers = %d", raw.Workers)
	}
	var filtered Results
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results?quality=1", nil, &filtered)
	if !filtered.Filtered || filtered.Workers != 2 || filtered.DroppedWorkers != 1 {
		t.Errorf("filtered results = %+v", filtered)
	}
}

func TestSessionUploadValidation(t *testing.T) {
	srv, prep := prepTest(t)
	// Garbage body.
	rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", []byte("{"), nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage status = %d", rec.Code)
	}
	// Missing worker id.
	up := sampleUpload(prep, "", questionnaire.ChoiceLeft)
	payload, _ := json.Marshal(up)
	rec = doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing worker status = %d", rec.Code)
	}
	// Unknown page reference.
	up = sampleUpload(prep, "w9", questionnaire.ChoiceLeft)
	up.Responses[0].PageID = "ghost-page"
	payload, _ = json.Marshal(up)
	rec = doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown page status = %d", rec.Code)
	}
	// Unknown test.
	rec = doJSON(t, srv, http.MethodPost, "/api/tests/ghost/sessions", payload, nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown test status = %d", rec.Code)
	}
	// Mismatched test id in body.
	up = sampleUpload(prep, "w10", questionnaire.ChoiceLeft)
	up.TestID = "other"
	payload, _ = json.Marshal(up)
	rec = doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("mismatched test status = %d", rec.Code)
	}
}

func TestSessionsAccessor(t *testing.T) {
	srv, prep := prepTest(t)
	up := sampleUpload(prep, "w1", questionnaire.ChoiceSame)
	payload, _ := json.Marshal(up)
	doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	sessions, err := srv.Sessions("srv-test")
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if len(sessions) != 1 || sessions[0].WorkerID != "w1" {
		t.Errorf("sessions = %+v", sessions)
	}
	if sessions[0].Demographics.Country != "US" {
		t.Errorf("demographics lost: %+v", sessions[0].Demographics)
	}
}

func TestConcludeUnknownTest(t *testing.T) {
	srv, _ := prepTest(t)
	if _, err := srv.ConcludeScratch("ghost", false); err == nil {
		t.Error("unknown test should fail")
	}
}

func TestListTests(t *testing.T) {
	srv, prep := prepTest(t)
	var summaries []TestSummary
	rec := doJSON(t, srv, http.MethodGet, "/api/tests", nil, &summaries)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(summaries) != 1 {
		t.Fatalf("summaries = %+v", summaries)
	}
	s := summaries[0]
	if s.TestID != "srv-test" || s.Participants != 10 || s.PageCount != 2 || s.Sessions != 0 {
		t.Errorf("summary = %+v", s)
	}
	// Upload a session: the count reflects it.
	up := sampleUpload(prep, "w1", questionnaire.ChoiceLeft)
	payload, _ := json.Marshal(up)
	doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	doJSON(t, srv, http.MethodGet, "/api/tests", nil, &summaries)
	if summaries[0].Sessions != 1 {
		t.Errorf("sessions = %d, want 1", summaries[0].Sessions)
	}
}
