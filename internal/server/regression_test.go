package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// Control answers must never appear in extension-facing payloads: neither
// the test-info JSON nor the task JSON may carry an "expected" field.
func TestNoControlAnswerLeakage(t *testing.T) {
	srv, prep := prepTest(t)
	if len(prep.ControlPages()) == 0 {
		t.Fatal("test fixture has no control pages")
	}
	for _, path := range []string{"/api/tests/srv-test", "/api/tests/srv-test/task"} {
		rec := doJSON(t, srv, http.MethodGet, path, nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d", path, rec.Code)
		}
		var generic map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &generic); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if strings.Contains(rec.Body.String(), `"expected"`) {
			t.Errorf("%s leaks control answers:\n%s", path, rec.Body.String())
		}
	}
	// The answers must still be available internally for scoring.
	entry, err := srv.folds.load("srv-test")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prep.ControlPages() {
		if entry.expected[p.ID] != p.Expected {
			t.Errorf("internal expected answer lost for %s", p.ID)
		}
	}
}

// A forged Expected in an uploaded control outcome must not survive: the
// server re-scores controls against storage, so a worker who answers a
// control wrong is dropped by quality control even if the upload claims the
// expected answer matched.
func TestForgedControlExpectedRejected(t *testing.T) {
	srv, prep := prepTest(t)
	control := prep.ControlPages()[0]
	wrong := questionnaire.ChoiceLeft
	if control.Expected == wrong {
		wrong = questionnaire.ChoiceRight
	}

	honest := sampleUpload(prep, "honest", questionnaire.ChoiceLeft)
	// The extension client no longer sends Expected at all.
	for i := range honest.Controls {
		honest.Controls[i].Expected = ""
	}
	cheat := sampleUpload(prep, "cheat", questionnaire.ChoiceLeft)
	for i := range cheat.Controls {
		// Wrong answer, but forged so Expected == Got client-side.
		cheat.Controls[i].Got = wrong
		cheat.Controls[i].Expected = wrong
	}
	for _, up := range []SessionUpload{honest, cheat} {
		payload, _ := json.Marshal(up)
		if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
			t.Fatalf("upload %s: %d %s", up.WorkerID, rec.Code, rec.Body.String())
		}
	}

	var filtered Results
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results?quality=1", nil, &filtered)
	if filtered.Workers != 1 || filtered.DroppedWorkers != 1 {
		t.Fatalf("filtered = %+v", filtered)
	}
	if len(filtered.KeptWorkers) != 1 || filtered.KeptWorkers[0] != "honest" {
		t.Errorf("kept = %v, want [honest]", filtered.KeptWorkers)
	}
}

func TestUploadStatusCodes(t *testing.T) {
	srv, prep := prepTest(t)

	// First upload succeeds, byte-identical retry conflicts.
	up := sampleUpload(prep, "dup", questionnaire.ChoiceLeft)
	payload, _ := json.Marshal(up)
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
		t.Fatalf("first upload = %d", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusConflict {
		t.Errorf("duplicate upload = %d, want 409", rec.Code)
	}

	// Oversized body is cut off with 413.
	big := sampleUpload(prep, "big", questionnaire.ChoiceLeft)
	big.Responses[0].Comment = strings.Repeat("x", maxSessionBytes+1)
	payload, _ = json.Marshal(big)
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload = %d, want 413", rec.Code)
	}

	// A control outcome naming a non-control page is a client error.
	forged := sampleUpload(prep, "sneak", questionnaire.ChoiceLeft)
	forged.Controls[0].PageID = prep.RealPages()[0].ID
	payload, _ = json.Marshal(forged)
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("non-control control outcome = %d, want 400", rec.Code)
	}
}

// A session document that fails to decode is a storage fault (500), not a
// missing resource (404).
func TestCorruptSessionIs500(t *testing.T) {
	srv, _ := prepTest(t)
	_, err := srv.db.Collection(aggregator.ResponsesCollection).Insert(store.Document{
		store.IDField: "srv-test/evil",
		"test_id":     "srv-test",
		"worker_id":   "evil",
		"session":     "{not json",
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("corrupt session results = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dashboard/srv-test", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("corrupt session dashboard = %d, want 500", rec.Code)
	}
}

// Cached results must be invalidated when a new session arrives, and cached
// test metadata must survive session churn (only session-derived state is
// dropped).
func TestCacheInvalidationOnUpload(t *testing.T) {
	srv, prep := prepTest(t)

	var res Results
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &res)
	if res.Workers != 0 {
		t.Fatalf("workers = %d", res.Workers)
	}
	// Second read is a cache hit.
	before := srv.folds.resultHits.Load()
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &res)
	if srv.folds.resultHits.Load() != before+1 {
		t.Error("second results read should hit the cache")
	}

	up := sampleUpload(prep, "w1", questionnaire.ChoiceLeft)
	payload, _ := json.Marshal(up)
	doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)

	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &res)
	if res.Workers != 1 {
		t.Errorf("post-upload workers = %d, want 1 (stale cache?)", res.Workers)
	}

	// Test metadata stayed cached across the upload.
	misses := srv.folds.testMisses.Load()
	if _, err := srv.folds.load("srv-test"); err != nil {
		t.Fatal(err)
	}
	if srv.folds.testMisses.Load() != misses {
		t.Error("upload should not evict test metadata")
	}
}

// Concurrent uploads against the cached serving path: distinct workers all
// land, and racing duplicates of one worker id produce exactly one 201.
// Interleaved reads exercise load/Sessions/Conclude under -race.
func TestConcurrentUploadsAgainstCache(t *testing.T) {
	srv, prep := prepTest(t)
	const workers = 16
	var wg sync.WaitGroup
	codes := make([]int, workers)
	dupCodes := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			up := sampleUpload(prep, fmt.Sprintf("w%02d", i), questionnaire.ChoiceLeft)
			payload, _ := json.Marshal(up)
			req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions", bytes.NewReader(payload))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			codes[i] = rec.Code

			dup := sampleUpload(prep, "contended", questionnaire.ChoiceRight)
			payload, _ = json.Marshal(dup)
			req = httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions", bytes.NewReader(payload))
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			dupCodes[i] = rec.Code

			// Reads race the uploads through the cache.
			srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/tests/srv-test", nil))
			srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/tests/srv-test/results", nil))
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusCreated {
			t.Errorf("worker %d upload = %d", i, code)
		}
	}
	created, conflict := 0, 0
	for _, code := range dupCodes {
		switch code {
		case http.StatusCreated:
			created++
		case http.StatusConflict:
			conflict++
		}
	}
	if created != 1 || conflict != workers-1 {
		t.Errorf("contended worker: %d created / %d conflict, want 1 / %d", created, conflict, workers-1)
	}
	var res Results
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &res)
	if res.Workers != workers+1 {
		t.Errorf("workers = %d, want %d", res.Workers, workers+1)
	}
}

func TestRouteLabel(t *testing.T) {
	tests := []struct {
		method, path, want string
	}{
		{"GET", "/api/tests", "GET /api/tests"},
		{"GET", "/api/tests/t1", "GET /api/tests/{id}"},
		{"GET", "/api/tests/t1/task", "GET /api/tests/{id}/task"},
		{"POST", "/api/tests/t1/sessions", "POST /api/tests/{id}/sessions"},
		{"GET", "/api/tests/t1/results", "GET /api/tests/{id}/results"},
		{"GET", "/api/tests/t1/fold", "GET /api/tests/{id}/fold"},
		{"GET", "/api/tests/t1/pages/pair-0-1/index.html", "GET /api/tests/{id}/pages"},
		{"GET", "/dashboard/t1", "GET /dashboard/{id}"},
		{"GET", "/metrics", "GET /metrics"},
		{"GET", "/favicon.ico", "GET other"},
	}
	for _, tt := range tests {
		r := httptest.NewRequest(tt.method, tt.path, nil)
		if got := RouteLabel(r); got != tt.want {
			t.Errorf("RouteLabel(%s %s) = %q, want %q", tt.method, tt.path, got, tt.want)
		}
	}
}

// A worker who reports no outcome for a control page fails the control
// rule: a session with "controls":null and one with no controls key are
// both dropped under ?quality=1 — by the fold read of a lazy state, by live
// state and by the oracle alike.
func TestUnansweredControlsAreDropped(t *testing.T) {
	srv, prep := prepTest(t)
	postSessions(t, srv, sampleUpload(prep, "w-good", questionnaire.ChoiceLeft))
	nullControls := sampleUpload(prep, "w-null", questionnaire.ChoiceLeft)
	nullControls.Controls = nil
	postSessions(t, srv, nullControls)
	var noKey map[string]any
	if err := json.Unmarshal(mustMarshal(t, sampleUpload(prep, "w-nokey", questionnaire.ChoiceLeft)), &noKey); err != nil {
		t.Fatal(err)
	}
	delete(noKey, "controls")
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", mustMarshal(t, noKey), nil); rec.Code != http.StatusCreated {
		t.Fatalf("upload without a controls key = %d: %s", rec.Code, rec.Body.String())
	}

	if _, fs := fetchFold(t, srv); fs.Sessions != 3 || !slices.Equal(fs.Workers, []string{"w-good"}) {
		t.Errorf("the fold read passes %v of %d sessions, want [w-good] of 3", fs.Workers, fs.Sessions)
	}
	res := getResults(t, srv, true)
	if !slices.Equal(res.KeptWorkers, []string{"w-good"}) || res.DroppedWorkers != 2 {
		t.Errorf("?quality=1 keeps %v and drops %d, want [w-good] and 2", res.KeptWorkers, res.DroppedWorkers)
	}
	assertServedEqualsOracle(t, srv, "srv-test")
}
