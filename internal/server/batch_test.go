package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// postBatch posts a raw batch body (optionally gzip-compressed on the wire)
// and decodes the BatchReport regardless of status: the batch endpoint
// answers with a report even on stream-level failures.
func postBatch(t *testing.T, srv *Server, body []byte, gzipped bool) (*httptest.ResponseRecorder, BatchReport) {
	t.Helper()
	if gzipped {
		body = gzipBytes(t, body)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions:batch", bytes.NewReader(body))
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var report BatchReport
	if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
		t.Fatalf("decoding batch report (status %d): %v (body %s)", rec.Code, err, rec.Body.String())
	}
	return rec, report
}

// marshalBatch renders a JSON array of uploads.
func marshalBatch(t *testing.T, uploads []SessionUpload) []byte {
	t.Helper()
	payload, err := json.Marshal(uploads)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// variedUploads builds n sessions of deliberately varying shape — different
// response counts, comment lengths, and absent optional fields — so pooled
// decode state that leaked between elements would corrupt at least one of
// them.
func variedUploads(t *testing.T, prep *aggregator.Prepared, n int) []SessionUpload {
	t.Helper()
	choices := []questionnaire.Choice{questionnaire.ChoiceLeft, questionnaire.ChoiceRight, questionnaire.ChoiceSame}
	uploads := make([]SessionUpload, n)
	for i := range uploads {
		up := sampleUpload(prep, fmt.Sprintf("bw%03d", i), choices[i%len(choices)])
		switch i % 3 {
		case 1:
			// Shorter than its neighbors: a stale pooled slice would leave
			// ghost responses from the previous element.
			up.Responses = up.Responses[:1]
			up.Behaviors = up.Behaviors[:1]
			up.Controls = nil
		case 2:
			up.Responses[0].Comment = strings.Repeat("detail ", i+1)
		}
		uploads[i] = up
	}
	return uploads
}

// The differential suite: a batch of N sessions must leave storage — every
// stored document, byte for byte — and the concluded results identical to N
// single uploads of the same sessions against an identically prepared server.
func TestBatchDifferentialAgainstSingles(t *testing.T) {
	single, prep := prepTest(t)
	batch, _ := prepTest(t)
	uploads := variedUploads(t, prep, 9)

	for _, up := range uploads {
		payload, err := json.Marshal(up)
		if err != nil {
			t.Fatal(err)
		}
		rec := doJSON(t, single, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
		if rec.Code != http.StatusCreated {
			t.Fatalf("single upload %s: %d %s", up.WorkerID, rec.Code, rec.Body.String())
		}
	}
	rec, report := postBatch(t, batch, marshalBatch(t, uploads), false)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	if report.Accepted != len(uploads) || report.Rejected != 0 {
		t.Fatalf("report = %+v", report)
	}
	for i, res := range report.Results {
		if res.Status != http.StatusCreated || res.Index != i || res.WorkerID != uploads[i].WorkerID {
			t.Errorf("element %d = %+v", i, res)
		}
	}

	// Stored documents must be byte-identical across the two paths.
	singleDocs := single.db.Collection(aggregator.ResponsesCollection).FindEq("test_id", "srv-test")
	if len(singleDocs) != len(uploads) {
		t.Fatalf("single stored %d sessions, want %d", len(singleDocs), len(uploads))
	}
	for _, doc := range singleDocs {
		got, err := batch.db.Collection(aggregator.ResponsesCollection).Get(doc.ID())
		if err != nil {
			t.Fatalf("batch store missing %s: %v", doc.ID(), err)
		}
		if !reflect.DeepEqual(got, doc) {
			t.Errorf("doc %s differs:\n batch: %v\nsingle: %v", doc.ID(), got, doc)
		}
	}

	// And so must every conclusion surface: raw, quality-controlled, and the
	// from-scratch oracle.
	for _, useQC := range []bool{false, true} {
		want, err := single.ConcludeScratch("srv-test", useQC)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batch.ConcludeScratch("srv-test", useQC)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("qc=%v results differ:\n batch: %+v\nsingle: %+v", useQC, got, want)
		}
	}
	var viaHTTPSingle, viaHTTPBatch Results
	doJSON(t, single, http.MethodGet, "/api/tests/srv-test/results?quality=1", nil, &viaHTTPSingle)
	doJSON(t, batch, http.MethodGet, "/api/tests/srv-test/results?quality=1", nil, &viaHTTPBatch)
	if !reflect.DeepEqual(viaHTTPBatch, viaHTTPSingle) {
		t.Errorf("HTTP results differ:\n batch: %+v\nsingle: %+v", viaHTTPBatch, viaHTTPSingle)
	}
}

// A batch larger than the commit chunk exercises the mid-stream flush path.
func TestBatchSpansMultipleChunks(t *testing.T) {
	defer func(old int) { batchChunkSize = old }(batchChunkSize)
	batchChunkSize = 4
	srv, prep := prepTest(t)
	uploads := variedUploads(t, prep, 11)
	rec, report := postBatch(t, srv, marshalBatch(t, uploads), false)
	if rec.Code != http.StatusOK || report.Accepted != 11 {
		t.Fatalf("status=%d report=%+v", rec.Code, report)
	}
	if got := srv.db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "srv-test"); got != 11 {
		t.Errorf("stored %d sessions, want 11", got)
	}
}

// Element-level failures: an invalid element mid-array is rejected with a
// per-element 400 while its neighbors commit; duplicates — against storage
// and within the batch — answer per-element 409.
func TestBatchElementErrors(t *testing.T) {
	srv, prep := prepTest(t)
	// Pre-store bw000 through the single path.
	payload, _ := json.Marshal(sampleUpload(prep, "bw000", questionnaire.ChoiceLeft))
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
		t.Fatal(rec.Code)
	}

	bad := sampleUpload(prep, "bad-page", questionnaire.ChoiceLeft)
	bad.Responses[0].PageID = "ghost-page"
	noWorker := sampleUpload(prep, "", questionnaire.ChoiceLeft)
	uploads := []SessionUpload{
		sampleUpload(prep, "bw000", questionnaire.ChoiceLeft), // dup vs stored
		sampleUpload(prep, "fresh-1", questionnaire.ChoiceLeft),
		bad,      // unknown page -> 400
		noWorker, // missing worker_id -> 400
		sampleUpload(prep, "fresh-2", questionnaire.ChoiceRight),
		sampleUpload(prep, "fresh-2", questionnaire.ChoiceRight), // dup within batch
	}
	rec, report := postBatch(t, srv, marshalBatch(t, uploads), false)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	wantStatuses := []int{409, 201, 400, 400, 201, 409}
	for i, want := range wantStatuses {
		if report.Results[i].Status != want {
			t.Errorf("element %d status = %d (%s), want %d",
				i, report.Results[i].Status, report.Results[i].Error, want)
		}
	}
	if report.Accepted != 2 || report.Rejected != 4 {
		t.Errorf("accepted/rejected = %d/%d, want 2/4", report.Accepted, report.Rejected)
	}
	if got := srv.db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "srv-test"); got != 3 {
		t.Errorf("stored %d sessions, want 3", got)
	}
}

// An element over the per-session byte budget gets a per-element 413 and its
// neighbors still commit.
func TestBatchElementTooLarge(t *testing.T) {
	srv, prep := prepTest(t)
	huge := sampleUpload(prep, "huge", questionnaire.ChoiceLeft)
	huge.Responses[0].Comment = strings.Repeat("x", maxSessionBytes+1024)
	uploads := []SessionUpload{
		sampleUpload(prep, "small-1", questionnaire.ChoiceLeft),
		huge,
		sampleUpload(prep, "small-2", questionnaire.ChoiceRight),
	}
	rec, report := postBatch(t, srv, marshalBatch(t, uploads), false)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d", rec.Code)
	}
	want := []int{201, 413, 201}
	for i, w := range want {
		if report.Results[i].Status != w {
			t.Errorf("element %d status = %d, want %d", i, report.Results[i].Status, w)
		}
	}
	if got := srv.db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "srv-test"); got != 2 {
		t.Errorf("stored %d sessions, want 2", got)
	}
}

// A batch over the whole-payload byte budget fails with 413, keeping the
// elements that decoded before the budget ran out (partial accept).
func TestBatchWholePayloadTooLarge(t *testing.T) {
	defer func(old int64) { maxBatchBytes = old }(maxBatchBytes)
	srv, prep := prepTest(t)
	uploads := variedUploads(t, prep, 6)
	payload := marshalBatch(t, uploads)
	// Enough for the first two elements, not the batch: the array opener,
	// both elements, the separating comma, and a few bytes of slack.
	first, _ := json.Marshal(uploads[0])
	second, _ := json.Marshal(uploads[1])
	maxBatchBytes = int64(1 + len(first) + 1 + len(second) + 8)
	rec, report := postBatch(t, srv, payload, false)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", rec.Code, rec.Body.String())
	}
	if report.Error == "" {
		t.Error("413 report must carry the stream error")
	}
	stored := srv.db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "srv-test")
	if stored != report.Accepted {
		t.Errorf("stored %d but report accepted %d", stored, report.Accepted)
	}
	if report.Accepted < 1 {
		t.Errorf("partial accept expected at least the first element, got %d", report.Accepted)
	}
}

// A batch with more elements than allowed fails with 413 after committing
// the allowed prefix.
func TestBatchTooManySessions(t *testing.T) {
	defer func(old int) { maxBatchSessions = old }(maxBatchSessions)
	maxBatchSessions = 3
	srv, prep := prepTest(t)
	rec, report := postBatch(t, srv, marshalBatch(t, variedUploads(t, prep, 5)), false)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if report.Accepted != 3 {
		t.Errorf("accepted = %d, want the allowed prefix of 3", report.Accepted)
	}
}

// Stream-level malformations: trailing garbage after the array, and a body
// that is not an array at all, both answer 400. Garbage after the array
// still commits the array's elements.
func TestBatchMalformedStream(t *testing.T) {
	srv, prep := prepTest(t)
	payload := marshalBatch(t, variedUploads(t, prep, 2))
	rec, report := postBatch(t, srv, append(payload, []byte(`{"junk":1}`)...), false)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("trailing garbage status = %d, want 400", rec.Code)
	}
	if report.Accepted != 2 {
		t.Errorf("accepted = %d, want 2 (array elements commit before the garbage)", report.Accepted)
	}

	rec, _ = postBatch(t, srv, []byte(`{"not":"an array"}`), false)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("non-array status = %d, want 400", rec.Code)
	}
	rec, _ = postBatch(t, srv, []byte(`[{"worker_id":`), false)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("truncated body status = %d, want 400", rec.Code)
	}
}

// A client that hung up mid-stream gets 408 and the uncommitted chunk is
// dropped: no work is persisted for a dead client.
func TestBatchClientCancel(t *testing.T) {
	srv, prep := prepTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	payload := marshalBatch(t, variedUploads(t, prep, 3))
	req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions:batch", bytes.NewReader(payload)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408", rec.Code)
	}
	if got := srv.db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "srv-test"); got != 0 {
		t.Errorf("stored %d sessions for a canceled request, want 0", got)
	}
}

// Gzip happy path: a compressed batch decodes and commits like a plain one,
// and batch metrics are exported.
func TestBatchGzip(t *testing.T) {
	srv, prep, _, _ := prepGuardedTest(t, guard.Config{RetryAfter: time.Second})
	reg := srv.reg
	uploads := variedUploads(t, prep, 5)
	rec, report := postBatch(t, srv, marshalBatch(t, uploads), true)
	if rec.Code != http.StatusOK || report.Accepted != 5 {
		t.Fatalf("status=%d report=%+v", rec.Code, report)
	}
	if got := reg.Counter("kscope_batch_requests_total").Value(); got != 1 {
		t.Errorf("batch requests counter = %d, want 1", got)
	}
	if got := reg.Counter("kscope_batch_sessions_total", "status", "201").Value(); got != 5 {
		t.Errorf("batch sessions 201 counter = %d, want 5", got)
	}
}

// A truncated gzip stream is a 400 with partial accept of what decoded.
func TestBatchGzipTruncated(t *testing.T) {
	srv, prep := prepTest(t)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(marshalBatch(t, variedUploads(t, prep, 4))); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions:batch", bytes.NewReader(cut))
	req.Header.Set("Content-Encoding", "gzip")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated gzip status = %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
}

// A gzip bomb — tiny on the wire, huge decompressed — is stopped by the
// decompressed-byte budget with 413, not by memory exhaustion.
func TestBatchGzipBomb(t *testing.T) {
	defer func(old int64) { maxBatchBytes = old }(maxBatchBytes)
	maxBatchBytes = 64 << 10
	srv, _ := prepTest(t)
	// A megabyte of JSON whitespace compresses to almost nothing.
	bomb := append([]byte("["), bytes.Repeat([]byte(" "), 1<<20)...)
	rec, _ := postBatch(t, srv, bomb, true)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("bomb status = %d, want 413 (%s)", rec.Code, rec.Body.String())
	}
}

// With the store breaker open the batch endpoint sheds up front: 503 +
// Retry-After before any decoding.
func TestBatchShedWhileBreakerOpen(t *testing.T) {
	srv, prep, ffs, _ := prepGuardedTest(t, guard.Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		BreakerProbes:    1,
		RetryAfter:       time.Second,
	})
	g := srv.guard
	tripBreaker(t, srv, prep, ffs, g)
	rec, _ := postBatch(t, srv, marshalBatch(t, variedUploads(t, prep, 2)), false)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed batch must carry Retry-After")
	}
}

// A storage fault mid-flush fails the batch with 503 + Retry-After (guard
// wired) and counts against the breaker.
func TestBatchStorageFault(t *testing.T) {
	srv, prep, ffs, _ := prepGuardedTest(t, guard.Config{
		BreakerThreshold: 100, // keep it closed; we only check the response
		BreakerCooldown:  time.Minute,
		RetryAfter:       time.Second,
	})
	ffs.FailAppendsAfter(0, store.ErrNoSpace, false)
	rec, _ := postBatch(t, srv, marshalBatch(t, variedUploads(t, prep, 2)), false)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("storage-fault 503 must carry Retry-After")
	}
}

// Batch uploads ride the same accumulator hooks as singles: results arrive
// incrementally without a scratch recompute.
func TestBatchFoldsIntoIncrementalResults(t *testing.T) {
	srv, prep := prepTest(t)
	var before Results
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &before)
	rec, _ := postBatch(t, srv, marshalBatch(t, variedUploads(t, prep, 6)), false)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	var after Results
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &after)
	if after.Workers != 6 {
		t.Errorf("workers = %d, want 6", after.Workers)
	}
	oracle, err := srv.ConcludeScratch("srv-test", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&after, oracle) {
		t.Errorf("incremental after batch = %+v, oracle = %+v", after, oracle)
	}
}

// An unknown test id on the batch route is a 404, mirroring the single path.
func TestBatchUnknownTest(t *testing.T) {
	srv, _ := prepTest(t)
	req := httptest.NewRequest(http.MethodPost, "/api/tests/ghost/sessions:batch", strings.NewReader("[]"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
}

// An empty batch is a well-formed no-op.
func TestBatchEmpty(t *testing.T) {
	srv, _ := prepTest(t)
	rec, report := postBatch(t, srv, []byte("[]"), false)
	if rec.Code != http.StatusOK || report.Accepted != 0 || report.Rejected != 0 {
		t.Errorf("status=%d report=%+v", rec.Code, report)
	}
}
