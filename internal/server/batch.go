package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/store"
)

// The batch endpoint's budgets, exported for the router: it splits a batch
// into sub-batches that each fit, so it must refuse what a node would.
const (
	// MaxBatchBytes caps a whole batch's JSON payload, on the wire and again
	// after any gzip decompression (a compressed bomb cannot buy more).
	MaxBatchBytes = 32 << 20
	// MaxBatchSessions caps the element count of one batch.
	MaxBatchSessions = 10_000
)

// The budgets as the handler reads them. Variables, not constants, so the
// error-matrix tests can shrink them; production code treats them as fixed.
var (
	maxBatchBytes    int64 = MaxBatchBytes
	maxBatchSessions       = MaxBatchSessions
	// batchChunkSize is how many validated sessions are committed per WAL
	// group commit while the stream is still being decoded.
	batchChunkSize = 256
)

// BatchElementResult reports the outcome of one element of a batch upload,
// using the same status vocabulary as the single-session endpoint: 201
// stored, 400 invalid, 409 duplicate worker, 413 element over the
// per-session byte budget.
type BatchElementResult struct {
	Index    int    `json:"index"`
	WorkerID string `json:"worker_id,omitempty"`
	Status   int    `json:"status"`
	Error    string `json:"error,omitempty"`
}

// BatchReport is the response body of POST /api/tests/{id}/sessions:batch.
// The endpoint has partial-accept semantics: elements that validated are
// committed even when a later element is rejected or the stream itself
// fails, and Results records what happened to every element that was
// reached. On a stream-level failure (malformed JSON, budget overflow,
// client cancel) the HTTP status is 400/413/408 and Error describes the
// failure; committed elements stay committed — a client retry answers 409
// for each of them, which the batch client treats as success.
type BatchReport struct {
	TestID   string               `json:"test_id"`
	Accepted int                  `json:"accepted"`
	Rejected int                  `json:"rejected"`
	Results  []BatchElementResult `json:"results"`
	Error    string               `json:"error,omitempty"`
	// Concluded is set client-side when the whole batch was acknowledged
	// with X-Kscope-Concluded — the test is decided and nothing was
	// stored. The server's concluded response is not a BatchReport.
	Concluded bool `json:"concluded,omitempty"`
}

// batchState carries one batch request's progress: the report being built
// and the chunk of validated-but-uncommitted documents.
type batchState struct {
	report  BatchReport
	pending []store.Document // validated docs awaiting the next group commit
	pendIdx []int            // report index per pending doc
	// feed says whether the test has live fold state for this chunk to
	// feed (sampled when the chunk starts, so a long batch picks up state a
	// results request created under it); notes are the pending docs'
	// reductions that ride with the insert, *foldNote or nil.
	feed    bool
	notes   []any
	flushes int
}

// handleSessionBatch is the batched upload endpoint: a JSON array of
// session uploads — optionally gzip-compressed — read through a sliding
// window that never holds the whole payload, decoded, validated and scored
// element by element where they lie in it, and committed in chunks through
// the store's WAL group commit.
func (s *Server) handleSessionBatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	testID := r.PathValue("id")
	g, ok := s.admitWrite(w, "session storage")
	if !ok {
		return
	}
	defer g.report(guard.Canceled)
	// A decision that latches mid-batch does not abort the stream: elements
	// already validated commit normally, and the next request is concluded.
	entry := g.load(w, testID)
	if entry == nil {
		return
	}

	if s.reg != nil {
		s.reg.Counter("kscope_batch_requests_total").Inc()
	}

	// The raw body budget bounds what we read off the wire; the budget
	// reader bounds what gzip may inflate it into.
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBytes)
	var body io.Reader = r.Body
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := acquireGzip(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "decoding gzip body: %v", err)
			return
		}
		defer releaseGzip(gz)
		body = gz
	}
	sr := acquireSessionReader(newBudgetReader(body, maxBatchBytes))
	defer sr.release()

	st := &batchState{report: BatchReport{TestID: testID, Results: []BatchElementResult{}}}
	// fail ends the request on a stream-level failure.
	fail := func(status int, format string, args ...any) {
		s.finishBatch(w, st, &g, status, format, args...)
	}

	switch c, err := sr.peek(); {
	case err != nil:
		fail(s.batchStreamStatus(err), "decoding batch: %v", err)
		return
	case c != '[':
		// A scalar is read to its end before it is refused, as it always
		// was: a budget can run out under it.
		status := http.StatusBadRequest
		if c != '{' {
			if _, err := sr.decode(); err != nil {
				status = s.batchStreamStatus(err)
			}
		}
		fail(status, "batch body must be a JSON array of sessions")
		return
	}
	sr.pos++

	upload := &sr.upload
	for {
		c, err := sr.peek()
		if err != nil {
			fail(s.batchStreamStatus(err), "decoding batch: %v", err)
			return
		}
		if c == ']' {
			sr.pos++
			break
		}
		if c == '}' {
			fail(http.StatusBadRequest, "decoding batch: invalid character '}' in the array")
			return
		}
		if len(st.report.Results) >= maxBatchSessions {
			fail(http.StatusRequestEntityTooLarge, "batch exceeds %d sessions", maxBatchSessions)
			return
		}
		// A dead client mid-stream: stop decoding, drop the uncommitted
		// chunk (the client will re-send; committed elements answer 409).
		if err := ctx.Err(); err != nil {
			st.pending, st.pendIdx = nil, nil
			fail(http.StatusRequestTimeout, "client canceled request: %v", err)
			return
		}
		if len(st.report.Results) > 0 {
			if c != ',' {
				fail(http.StatusBadRequest, "decoding batch: invalid character %q after element %d", c, len(st.report.Results)-1)
				return
			}
			sr.pos++
			if _, err = sr.peek(); err != nil {
				fail(s.batchStreamStatus(err), "decoding batch: %v", err)
				return
			}
		}
		// An element's size is its own bytes: not the separator before it,
		// not the whitespace around it. One the codec refuses by a rule is
		// JSON that ends where the decode says, and the stream reads on.
		size, err := sr.decode()
		refused, _ := err.(*refusal)
		if err != nil && refused == nil {
			fail(s.batchStreamStatus(err), "decoding batch element %d: %v", len(st.report.Results), err)
			return
		}
		elem := BatchElementResult{Index: len(st.report.Results)}
		if refused == nil {
			elem.WorkerID = upload.WorkerID
		}
		if size > maxSessionBytes {
			elem.Status = http.StatusRequestEntityTooLarge
			elem.Error = fmt.Sprintf("session exceeds %d bytes", maxSessionBytes)
			st.report.Results = append(st.report.Results, elem)
			continue
		}
		if refused != nil {
			elem.Status = http.StatusBadRequest
			elem.Error = "decoding session: " + err.Error()
			st.report.Results = append(st.report.Results, elem)
			continue
		}
		doc, err := s.buildSessionDoc(testID, entry, sr)
		if err != nil {
			elem.Status = http.StatusBadRequest
			elem.Error = err.Error()
			st.report.Results = append(st.report.Results, elem)
			continue
		}
		// Placeholder status; the flush fills in 201/409 (or fails the
		// request on a storage fault).
		st.report.Results = append(st.report.Results, elem)
		if len(st.pending) == 0 {
			st.feed = s.folds.feeding(testID, entry)
		}
		var note *foldNote
		if st.feed {
			note = entry.reduce(upload)
		}
		st.pending = append(st.pending, doc)
		st.pendIdx = append(st.pendIdx, elem.Index)
		st.notes = append(st.notes, note)
		if len(st.pending) >= batchChunkSize {
			if !s.flushBatch(w, st, &g) {
				return
			}
		}
	}
	// Strict EOF: trailing garbage after the array is as malformed as
	// garbage inside it.
	if err := sr.requireEOF(); err != nil {
		fail(http.StatusBadRequest, "batch body: %v", err)
		return
	}
	if err := ctx.Err(); err != nil {
		st.pending, st.pendIdx = nil, nil
		fail(http.StatusRequestTimeout, "client canceled request: %v", err)
		return
	}
	if !s.flushBatch(w, st, &g) {
		return
	}
	g.report(guard.Success)
	s.noteBatchMetrics(st)
	writeJSON(w, http.StatusOK, &st.report)
}

// batchStreamStatus classifies a stream-level decode error: body over the
// wire budget or inflating past the decompressed budget is 413, everything
// else (malformed JSON, truncated gzip, short body) is 400.
func (s *Server) batchStreamStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || errors.Is(err, errBatchBudget) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// buildSessionDoc validates and scores the upload sr has decoded, for both
// upload endpoints, and renders its storage document. The returned document
// embeds the one string copy of the re-encoded session; nothing in it
// aliases the pooled reader.
func (s *Server) buildSessionDoc(testID string, entry *testEntry, sr *sessionReader) (store.Document, error) {
	upload := &sr.upload
	if upload.TestID == "" {
		upload.TestID = testID
	} else if upload.TestID != testID {
		return nil, fmt.Errorf("session test_id %q contradicts the URL test %q", upload.TestID, testID)
	}
	if err := upload.validate(entry.info.TestID, entry.pages); err != nil {
		return nil, fmt.Errorf("invalid session: %w", err)
	}
	for i := range upload.Controls {
		exp, ok := entry.expected[upload.Controls[i].PageID]
		if !ok {
			return nil, fmt.Errorf("control outcome references non-control page %q", upload.Controls[i].PageID)
		}
		upload.Controls[i].Expected = exp
	}
	sr.enc = appendSession(sr.enc[:0], upload)
	return store.Document{
		store.IDField: testID + "/" + upload.WorkerID,
		"test_id":     testID,
		"worker_id":   upload.WorkerID,
		"session":     string(sr.enc),
	}, nil
}

// flushBatch commits the pending chunk through the gate's commit and fills
// in the per-element statuses. It returns false once the gate has answered
// a storage fault.
func (s *Server) flushBatch(w http.ResponseWriter, st *batchState, g *writeGate) bool {
	if len(st.pending) == 0 {
		return true
	}
	st.flushes++
	errs, ok := g.commit(w, "storing batch", st.pending, st.notes)
	if !ok {
		return false
	}
	for i, err := range errs {
		elem := &st.report.Results[st.pendIdx[i]]
		elem.Status = http.StatusCreated
		if err != nil {
			elem.Status = http.StatusConflict
			elem.Error = fmt.Sprintf("worker %q already uploaded a session for this test", elem.WorkerID)
		}
	}
	st.pending = st.pending[:0]
	st.pendIdx = st.pendIdx[:0]
	st.notes = st.notes[:0]
	return true
}

// finishBatch handles a stream-level failure: commit whatever validated
// before the failure (partial accept), then answer with the failure status
// and the report of everything that was reached.
func (s *Server) finishBatch(w http.ResponseWriter, st *batchState, g *writeGate, status int, format string, args ...any) {
	if !s.flushBatch(w, st, g) {
		return
	}
	st.report.Error = fmt.Sprintf(format, args...)
	s.noteBatchMetrics(st)
	writeJSON(w, status, &st.report)
}

// noteBatchMetrics finalizes the report's counts and exports the batch
// metrics.
func (s *Server) noteBatchMetrics(st *batchState) {
	for _, res := range st.report.Results {
		switch res.Status {
		case http.StatusCreated:
			st.report.Accepted++
		default:
			st.report.Rejected++
		}
	}
	if s.reg == nil {
		return
	}
	for _, res := range st.report.Results {
		s.reg.Counter("kscope_batch_sessions_total", "status", strconv.Itoa(res.Status)).Inc()
	}
	s.reg.Counter("kscope_batch_flushes_total").Add(int64(st.flushes))
	s.reg.Histogram("kscope_batch_size", obs.DefSizeBuckets).Observe(float64(len(st.report.Results)))
}
