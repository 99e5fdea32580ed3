package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// randomUpload builds a deliberately varied session for a prepared test:
// random choices, occasional incompleteness, failed controls, hasty
// timings, and duplicate answers for one page — everything the battery
// discriminates on.
func randomUpload(prep *aggregator.Prepared, workerID string, rng *rand.Rand) SessionUpload {
	choices := []questionnaire.Choice{
		questionnaire.ChoiceLeft, questionnaire.ChoiceRight, questionnaire.ChoiceSame,
	}
	testID := prep.Test.TestID
	up := SessionUpload{TestID: testID, WorkerID: workerID}
	for _, p := range prep.RealPages() {
		for q := range prep.Test.Questions {
			n := 1
			if rng.Intn(10) == 0 {
				n = 2 // duplicate answer for this question
			}
			for i := 0; i < n; i++ {
				up.Responses = append(up.Responses, questionnaire.Response{
					TestID: testID, WorkerID: workerID, PageID: p.ID,
					QuestionID: fmt.Sprintf("q%d", q), Choice: choices[rng.Intn(3)],
					DurationMillis: 1000 + rng.Intn(40_000),
				})
			}
		}
		up.Behaviors = append(up.Behaviors, crowd.Behavior{
			TimeOnTaskMillis: 1000 + rng.Intn(40_000), CreatedTabs: 1,
		})
	}
	if rng.Intn(8) == 0 && len(up.Responses) > 1 {
		up.Responses = up.Responses[:len(up.Responses)-1] // incomplete
	}
	for _, p := range prep.ControlPages() {
		got := p.Expected
		if rng.Intn(5) == 0 {
			got = got.Opposite()
			if got == p.Expected {
				got = questionnaire.ChoiceLeft
			}
		}
		up.Controls = append(up.Controls, quality.ControlOutcome{PageID: p.ID, Got: got})
		up.Behaviors = append(up.Behaviors, crowd.Behavior{
			TimeOnTaskMillis: 1000 + rng.Intn(40_000), CreatedTabs: 1,
		})
	}
	if rng.Intn(10) == 0 {
		up.Controls = nil // no control answers at all
	}
	return up
}

func getResults(t *testing.T, srv *Server, quality bool) *Results {
	t.Helper()
	path := "/api/tests/srv-test/results"
	if quality {
		path += "?quality=1"
	}
	var res Results
	rec := doJSON(t, srv, http.MethodGet, path, nil, &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("results status = %d: %s", rec.Code, rec.Body.String())
	}
	return &res
}

// TestIncrementalMatchesOracleDifferential drives a seeded random workload
// of uploads interleaved with results requests and asserts after every
// step that the incremental serving path deep-equals the from-scratch
// oracle, with and without quality control.
func TestIncrementalMatchesOracleDifferential(t *testing.T) {
	srv, prep := prepTest(t)
	rng := rand.New(rand.NewSource(404))

	check := func(step int) {
		for _, useQC := range []bool{false, true} {
			got := getResults(t, srv, useQC)
			want, err := srv.ConcludeScratch("srv-test", useQC)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (quality=%v):\nincremental %+v\noracle      %+v", step, useQC, got, want)
			}
		}
	}

	check(-1) // empty test
	for i := 0; i < 60; i++ {
		up := randomUpload(prep, fmt.Sprintf("w%03d", rng.Intn(80)), rng)
		payload, _ := json.Marshal(up)
		rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
		if rec.Code != http.StatusCreated && rec.Code != http.StatusConflict {
			t.Fatalf("upload %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if rng.Intn(3) == 0 {
			check(i)
		}
	}
	check(60)
}

// TestIncrementalMatchesScratchBytes compares the HTTP results surface with
// the from-scratch oracle rendered the same way: byte-for-byte identical
// payloads.
func TestIncrementalMatchesScratchBytes(t *testing.T) {
	srv, prep := prepTest(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		up := randomUpload(prep, fmt.Sprintf("w%02d", i), rng)
		payload, _ := json.Marshal(up)
		if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
			t.Fatalf("upload: %d", rec.Code)
		}
	}
	for _, useQC := range []bool{false, true} {
		path := "/api/tests/srv-test/results"
		if useQC {
			path += "?quality=1"
		}
		got := doJSON(t, srv, http.MethodGet, path, nil, nil)
		if got.Code != http.StatusOK {
			t.Fatalf("status %d", got.Code)
		}
		oracle, err := srv.ConcludeScratch("srv-test", useQC)
		if err != nil {
			t.Fatal(err)
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, oracle)
		if got.Body.String() != want.Body.String() {
			t.Errorf("%s differs:\nserved  %s\nscratch %s", path, got.Body.String(), want.Body.String())
		}
	}
}

// TestIncrementalUnderChaos runs the same differential through a live
// listener with a fault-injecting transport: dropped connections and
// injected 503s on the wire must never make the incremental state diverge
// from storage.
func TestIncrementalUnderChaos(t *testing.T) {
	srv, prep := prepTest(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(5150))
	chaos, err := netsim.NewChaosTransport(http.DefaultTransport, netsim.ChaosConfig{
		DropRate: 0.15, FaultRate: 0.15, FaultStatus: http.StatusServiceUnavailable,
	}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: chaos}

	post := func(payload []byte) int {
		for attempt := 0; attempt < 25; attempt++ {
			resp, err := client.Post(ts.URL+"/api/tests/srv-test/sessions", "application/json", bytes.NewReader(payload))
			if err != nil {
				continue
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code < 500 {
				return code
			}
		}
		t.Fatalf("upload never got through chaos")
		return 0
	}

	acked := 0
	for i := 0; i < 25; i++ {
		up := randomUpload(prep, fmt.Sprintf("w%02d", i), rng)
		payload, _ := json.Marshal(up)
		switch code := post(payload); code {
		case http.StatusCreated, http.StatusConflict:
			acked++
		default:
			t.Fatalf("upload %d: status %d", i, code)
		}
	}
	if acked != 25 {
		t.Fatalf("acked %d of 25", acked)
	}
	for _, useQC := range []bool{false, true} {
		got := getResults(t, srv, useQC)
		want, err := srv.ConcludeScratch("srv-test", useQC)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-chaos divergence (quality=%v)", useQC)
		}
	}
}

// TestResultsFreshnessAfterUpload is the satellite regression for the
// concludeCached generation handling: an acknowledged upload must be
// visible in the very next results response — the cache may never serve
// results older than the state it claims.
func TestResultsFreshnessAfterUpload(t *testing.T) {
	srv, prep := prepTest(t)
	for i := 0; i < 30; i++ {
		up := sampleUpload(prep, fmt.Sprintf("w%02d", i), questionnaire.ChoiceLeft)
		payload, _ := json.Marshal(up)
		if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
			t.Fatalf("upload %d: %d", i, rec.Code)
		}
		if res := getResults(t, srv, false); res.Workers != i+1 {
			t.Fatalf("after %d uploads: Workers = %d (stale results)", i+1, res.Workers)
		}
		if res := getResults(t, srv, i%2 == 0); res.Filtered != (i%2 == 0) {
			t.Fatalf("quality flag not honored at step %d", i)
		}
	}
	// The fill after the last upload must have been accepted by the cache:
	// quiescent reads are hits, not recomputes.
	before := srv.cache.resultHits.Load()
	getResults(t, srv, false)
	if srv.cache.resultHits.Load() != before+1 {
		t.Error("quiescent results read should be a cache hit")
	}
}

// putResults must reject fills whose generation was superseded and accept
// current ones — the primitive behind the freshness invariant.
func TestPutResultsGenerationCheck(t *testing.T) {
	c := newServingCache()
	key := resultsKey{testID: "t", quality: false}
	gen := c.gen("t")
	if !c.putResults(key, gen, &Results{TestID: "t"}) {
		t.Fatal("current-generation fill rejected")
	}
	c.invalidateSessions("t")
	if c.putResults(key, gen, &Results{TestID: "t"}) {
		t.Fatal("superseded fill accepted")
	}
	if _, ok := c.resultsFor(key); ok {
		t.Fatal("invalidated results still served")
	}
}

// TestConcurrentResultsNeverStale hammers uploads and results reads
// concurrently (run under -race): any results response must reflect at
// least every upload fully acknowledged before the request started, and
// the final state must equal the oracle.
func TestConcurrentResultsNeverStale(t *testing.T) {
	srv, prep := prepTest(t)
	const uploaders = 8
	const perUploader = 5
	var acked atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, 256)

	for u := 0; u < uploaders; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < perUploader; i++ {
				up := sampleUpload(prep, fmt.Sprintf("w%d-%d", u, i), questionnaire.ChoiceLeft)
				payload, _ := json.Marshal(up)
				req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions", bytes.NewReader(payload))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated {
					errs <- fmt.Sprintf("upload %d-%d: %d", u, i, rec.Code)
					return
				}
				acked.Add(1)
			}
		}(u)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				before := acked.Load()
				req := httptest.NewRequest(http.MethodGet, "/api/tests/srv-test/results", nil)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("results: %d", rec.Code)
					return
				}
				var res Results
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					errs <- err.Error()
					return
				}
				if int64(res.Workers) < before {
					errs <- fmt.Sprintf("stale results: %d workers, %d acked before request", res.Workers, before)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	got := getResults(t, srv, false)
	want, err := srv.ConcludeScratch("srv-test", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("final state diverges from oracle")
	}
}

// Direct store mutations that the incremental path cannot fold in — an
// overwrite of a stored session and a delete — must drop the live state
// and rebuild, never serve stale aggregates.
func TestAccumulatorInvalidationOnStoreMutation(t *testing.T) {
	srv, prep := prepTest(t)
	coll := srv.db.Collection(aggregator.ResponsesCollection)
	for i := 0; i < 4; i++ {
		up := sampleUpload(prep, fmt.Sprintf("w%d", i), questionnaire.ChoiceLeft)
		payload, _ := json.Marshal(up)
		doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	}
	if res := getResults(t, srv, false); res.Workers != 4 {
		t.Fatalf("workers = %d", res.Workers)
	}

	// Overwrite w0's session with different answers via direct Insert.
	up := sampleUpload(prep, "w0", questionnaire.ChoiceRight)
	raw, _ := json.Marshal(up)
	if _, err := coll.Insert(store.Document{
		store.IDField: "srv-test/w0",
		"test_id":     "srv-test",
		"worker_id":   "w0",
		"session":     string(raw),
	}); err != nil {
		t.Fatal(err)
	}
	got := getResults(t, srv, false)
	want, err := srv.ConcludeScratch("srv-test", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("overwrite not reflected")
	}

	// Delete a session.
	if err := coll.Delete("srv-test/w1"); err != nil {
		t.Fatal(err)
	}
	if res := getResults(t, srv, false); res.Workers != 3 {
		t.Fatalf("workers after delete = %d", res.Workers)
	}
}
