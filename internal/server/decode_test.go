package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// Regression: the single-upload decoder used to stop at the end of the
// first JSON value and silently accept trailing garbage.
func TestUploadRejectsTrailingGarbage(t *testing.T) {
	srv, prep := prepTest(t)
	payload, err := json.Marshal(sampleUpload(prep, "w-trail", questionnaire.ChoiceLeft))
	if err != nil {
		t.Fatal(err)
	}
	for _, trailer := range []string{`junk`, `{"again":1}`, `[]`, `0`} {
		rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions",
			append(append([]byte{}, payload...), []byte(trailer)...), nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("trailer %q: status = %d, want 400 (%s)", trailer, rec.Code, rec.Body.String())
		}
	}
	// Trailing whitespace is not garbage.
	rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions",
		append(append([]byte{}, payload...), []byte("  \n\t")...), nil)
	if rec.Code != http.StatusCreated {
		t.Errorf("trailing whitespace: status = %d, want 201 (%s)", rec.Code, rec.Body.String())
	}
}

// Regression: a body test_id contradicting the URL used to be accepted (only
// an empty one was backfilled); it must be a 400.
func TestUploadRejectsContradictingTestID(t *testing.T) {
	srv, prep := prepTest(t)
	up := sampleUpload(prep, "w-mismatch", questionnaire.ChoiceLeft)
	up.TestID = "some-other-test"
	for i := range up.Responses {
		up.Responses[i].TestID = "some-other-test"
	}
	payload, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "contradicts") {
		t.Errorf("error should name the contradiction: %s", rec.Body.String())
	}

	// An empty body test_id is still backfilled from the URL.
	up.TestID = ""
	for i := range up.Responses {
		up.Responses[i].TestID = "srv-test"
	}
	payload, err = json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	rec = doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	if rec.Code != http.StatusCreated {
		t.Errorf("backfill status = %d, want 201 (%s)", rec.Code, rec.Body.String())
	}
}

// Nested response identifiers contradicting the session are rejected: the
// stored raw is what conclusions replay, and a foreign test_id or worker_id
// inside it would attribute answers to the wrong place.
func TestUploadRejectsContradictingNestedIDs(t *testing.T) {
	srv, prep := prepTest(t)

	up := sampleUpload(prep, "w-nested", questionnaire.ChoiceLeft)
	up.Responses[0].TestID = "someone-elses-test"
	payload, _ := json.Marshal(up)
	rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("nested test_id: status = %d, want 400 (%s)", rec.Code, rec.Body.String())
	}

	up = sampleUpload(prep, "w-nested", questionnaire.ChoiceLeft)
	up.Responses[0].WorkerID = "someone-else"
	payload, _ = json.Marshal(up)
	rec = doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("nested worker_id: status = %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
}

// Regression: the builder endpoint had no body bound at all.
func TestBuilderBodyBoundAndStrict(t *testing.T) {
	srv, _ := prepTest(t)
	valid := []byte(`{"test_id":"built","description":"d","participants":5,` +
		`"questions":["Which is better?"],` +
		`"webpages":[{"path":"a","uniform_load_millis":100},{"path":"b","uniform_load_millis":200}]}`)

	rec := doJSON(t, srv, http.MethodPost, "/api/params/build", valid, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid request: status = %d (%s)", rec.Code, rec.Body.String())
	}

	rec = doJSON(t, srv, http.MethodPost, "/api/params/build", append(append([]byte{}, valid...), []byte(`junk`)...), nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("trailing garbage: status = %d, want 400", rec.Code)
	}

	big := append(append([]byte(`{"description":"`), bytes.Repeat([]byte("x"), maxBuilderBytes+1024)...), []byte(`"}`)...)
	rec = doJSON(t, srv, http.MethodPost, "/api/params/build", big, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413 (%s)", rec.Code, rec.Body.String())
	}
}

// decodeStrict in isolation: exactly one value, whitespace tolerated,
// anything else rejected.
func TestDecodeStrict(t *testing.T) {
	var v map[string]int
	if err := decodeStrict(strings.NewReader(`{"a":1}  `), &v); err != nil {
		t.Errorf("clean value: %v", err)
	}
	if err := decodeStrict(strings.NewReader(`{"a":1}{"b":2}`), &v); err == nil {
		t.Error("second value accepted")
	}
	if err := decodeStrict(strings.NewReader(`{"a":1}nonsense`), &v); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// A reused upload must keep no trace of the previous decode: a field absent
// from the wire must come back zero, not inherited — including inside slice
// elements decoded into a recycled backing array, and an array absent from
// the wire, or null, must come back nil, not empty — in the encoder's key
// order and in another.
func TestUploadPoolReset(t *testing.T) {
	first := `{"test_id":"t","worker_id":"w1","responses":[` +
		`{"test_id":"t","worker_id":"w1","page_id":"p1","question_id":"q0","choice":"left","comment":"sticky","duration_millis":5}],` +
		`"behaviors":[{"TimeOnTaskMillis":9}],"controls":[{"page_id":"c","got":"same"}]}`
	for _, second := range []string{
		`{"test_id":"t","worker_id":"w2","responses":[` +
			`{"test_id":"t","worker_id":"w2","page_id":"p1","question_id":"q0","choice":"right","duration_millis":7}]}`,
		`{"worker_id":"w2","test_id":"t","controls":null,"responses":[` +
			`{"duration_millis":7,"test_id":"t","worker_id":"w2","page_id":"p1","question_id":"q0","choice":"right"}],"behaviors":[{}]}`,
	} {
		var up SessionUpload
		if _, err := decodeSession([]byte(first), &up); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeSession([]byte(second), &up); err != nil {
			t.Fatal(err)
		}
		if up.Responses[0].Comment != "" {
			t.Errorf("comment leaked across reuse: %q", up.Responses[0].Comment)
		}

		// And the persisted form after reuse is byte-identical to a fresh decode.
		var fresh SessionUpload
		if err := json.Unmarshal([]byte(second), &fresh); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(up, fresh) {
			t.Errorf("reused = %+v, fresh = %+v", up, fresh)
		}
		want, err := json.Marshal(&fresh)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSession(nil, &up); string(got) != string(want) {
			t.Errorf("appendSession = %s, want %s", got, want)
		}
	}
}

// TestReplayReadsEveryStoredForm: stored sessions at the edges of what the
// encoder writes — null for each of the three arrays, and integers of 19
// digits, at either end of an int — replay from a reopened WAL as they were
// stored: the session list serves them byte for byte, and the raw results
// and the fold document count them. encoding/json read these at replay until
// the codec did.
func TestReplayReadsEveryStoredForm(t *testing.T) {
	dir, blobs := t.TempDir(), store.NewBlobStore()
	db, err := store.Open(dir, store.WithSyncPolicy(store.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	prep := prepareOn(t, db, blobs, "srv-test")
	nulls := sampleUpload(prep, "w-nulls", questionnaire.ChoiceLeft)
	nulls.Responses, nulls.Behaviors, nulls.Controls = nil, nil, nil
	nulls.Demographics.TechAbility = math.MaxInt64
	wide := sampleUpload(prep, "w-wide", questionnaire.ChoiceRight)
	wide.Responses[0].DurationMillis = math.MinInt64
	wide.Behaviors[0].TimeOnTaskMillis = 1_000_000_000_000_000_000
	coll := db.Collection(aggregator.ResponsesCollection)
	for _, u := range []SessionUpload{nulls, wide} {
		if _, err := coll.Insert(store.Document{
			store.IDField: "srv-test/" + u.WorkerID, "test_id": "srv-test", "worker_id": u.WorkerID, "session": string(appendSession(nil, &u)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db = openDir(t, dir)
	srv, err := New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	want := append(mustMarshal(t, []SessionUpload{nulls, wide}), '\n')
	if got := getOK(t, srv, "/api/tests/srv-test/sessions"); !bytes.Equal(got, want) {
		t.Errorf("session list after replay:\n%s\nwant\n%s", got, want)
	}
	var results Results
	if err := json.Unmarshal(getOK(t, srv, "/api/tests/srv-test/results"), &results); err != nil || results.Workers != 2 {
		t.Errorf("results after replay: %+v (%v), want 2 workers", results, err)
	}
	if fs, err := DecodeFoldState(getOK(t, srv, "/api/tests/srv-test/fold")); err != nil || fs.Sessions != 2 {
		t.Errorf("fold document after replay: %+v (%v), want 2 sessions", fs, err)
	}
}
