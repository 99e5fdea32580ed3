package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// prepDeleteFixture is prepTest with the storage handles exposed, so delete
// tests can audit blob refcounts and raw collections.
func prepDeleteFixture(t testing.TB, opts ...Option) (*Server, *aggregator.Aggregator, *store.DB, *store.BlobStore, *aggregator.Prepared) {
	t.Helper()
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := agg.Prepare(deleteFixtureTest(), deleteFixtureSites(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, blobs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, agg, db, blobs, prep
}

func deleteFixtureTest() *params.Test {
	return &params.Test{
		TestID:          "srv-test",
		WebpageNum:      2,
		TestDescription: "delete lifecycle test",
		ParticipantNum:  10,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "a", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: "b", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
}

func deleteFixtureSites() map[string]*webgen.Site {
	return map[string]*webgen.Site{
		"a": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 12}),
		"b": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 22}),
	}
}

// TestDeleteReleasesEverything is the lifecycle leak check:
// create → serve → delete must return the blob store to its baseline, empty
// the test's documents, and leave no servable state behind — with the store
// breaker closed or open.
func TestDeleteReleasesEverything(t *testing.T) {
	g := guard.New(guard.Config{BreakerThreshold: 1, BreakerCooldown: time.Minute})
	srv, _, db, blobs, prep := prepDeleteFixture(t, WithGuard(g))
	if blobs.Stats().UniqueBlobs == 0 {
		t.Fatal("fixture should have stored blobs")
	}

	// Serve: a few sessions land, results are warm.
	for _, w := range []string{"w1", "w2", "w3"} {
		payload, _ := json.Marshal(sampleUpload(prep, w, questionnaire.ChoiceLeft))
		if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
			t.Fatalf("upload status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("results before delete = %d", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("info before delete = %d", rec.Code)
	}

	var out map[string]any
	rec := doJSON(t, srv, http.MethodDelete, "/api/tests/srv-test", nil, &out)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status = %d: %s", rec.Code, rec.Body.String())
	}
	if out["pages"].(float64) != float64(len(prep.Pages)) || out["sessions"].(float64) != 3 {
		t.Errorf("delete report = %v", out)
	}

	// CAS refcounts released: blob store back to its pre-create baseline.
	if got := blobs.Stats().UniqueBlobs; got != 0 {
		t.Errorf("UniqueBlobs after delete = %d, want 0 (leak)", got)
	}
	// Documents gone.
	if n := db.Collection(aggregator.TestsCollection).Count(); n != 0 {
		t.Errorf("test docs after delete = %d", n)
	}
	if n := db.Collection(aggregator.PagesCollection).Count(); n != 0 {
		t.Errorf("page docs after delete = %d", n)
	}
	if n := db.Collection(aggregator.ResponsesCollection).Count(); n != 0 {
		t.Errorf("response docs after delete = %d", n)
	}

	// Nothing servable remains: metadata, pages, and — the regression this
	// test exists for — results must 404 instead of answering from a cache
	// or accumulator that outlived the test.
	for _, path := range []string{
		"/api/tests/srv-test",
		"/api/tests/srv-test/results",
		"/api/tests/srv-test/results?quality=1",
		"/api/tests/srv-test/pages/" + prep.Pages[0].ID + "/index.html",
	} {
		if rec := doJSON(t, srv, http.MethodGet, path, nil, nil); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s after delete = %d, want 404", path, rec.Code)
		}
	}

	// Deleting again: nothing left, so 404.
	if rec := doJSON(t, srv, http.MethodDelete, "/api/tests/srv-test", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("second delete = %d, want 404", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodDelete, "/api/tests/ghost", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("delete of never-created test = %d, want 404", rec.Code)
	}

	// An open breaker serves nothing of it either: degraded reads are the
	// same live state.
	done, _ := g.Breaker().Allow()
	done(guard.Failure)
	for _, path := range []string{"/api/tests/srv-test/results", "/api/tests/srv-test/results?quality=1"} {
		if rec := doJSON(t, srv, http.MethodGet, path, nil, nil); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s after delete, breaker %v = %d, want 404", path, g.Breaker().State(), rec.Code)
		}
	}
}

// TestDeleteThenRecreate proves churn can reuse a test id: the same test
// prepared again after deletion serves fresh state, not cached leftovers.
func TestDeleteThenRecreate(t *testing.T) {
	srv, agg, _, blobs, prep := prepDeleteFixture(t)

	payload, _ := json.Marshal(sampleUpload(prep, "w1", questionnaire.ChoiceLeft))
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d", rec.Code)
	}
	var before Results
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &before)
	if before.Workers != 1 {
		t.Fatalf("workers before = %d", before.Workers)
	}

	if rec := doJSON(t, srv, http.MethodDelete, "/api/tests/srv-test", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d", rec.Code)
	}
	if _, err := agg.Prepare(deleteFixtureTest(), deleteFixtureSites(), nil); err != nil {
		t.Fatalf("re-prepare after delete: %v", err)
	}
	if blobs.Stats().UniqueBlobs == 0 {
		t.Fatal("re-prepare should store blobs again")
	}
	var info TestInfo
	if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test", nil, &info); rec.Code != http.StatusOK {
		t.Fatalf("info after recreate = %d", rec.Code)
	}
	var res Results
	if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &res); rec.Code != http.StatusOK {
		t.Fatalf("results after recreate = %d", rec.Code)
	}
	if res.Workers != 0 {
		t.Errorf("recreated test should have zero sessions, got %d", res.Workers)
	}
}
