// Package server implements Kaleidoscope's core server (NodeJS in the
// paper) as a net/http service with the paper's four functions:
//
//   - publish the test task information a crowdsourcing platform needs
//     (GET /api/tests/{id}/task),
//   - serve test resources to the browser extension
//     (GET /api/tests/{id} and /api/tests/{id}/pages/{page}/{file}),
//   - collect responses from participants
//     (POST /api/tests/{id}/sessions),
//   - conclude the final results, raw and quality-controlled
//     (GET /api/tests/{id}/results).
//
// The serving path is index-backed and cached: session lookups go through a
// secondary index on test_id, test metadata is parsed once and cached until
// the underlying documents change, and concluded results are cached until a
// new session arrives. Control-question answers never leave the server —
// extension-facing payloads carry PageView, which omits the expected
// answer, and uploaded control outcomes are re-scored against storage.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/earlystop"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// maxSessionBytes caps a session-upload body; larger uploads get 413.
const maxSessionBytes = 1 << 20

// Server is the core server. It is an http.Handler.
type Server struct {
	db    *store.DB
	blobs *store.BlobStore
	mux   *http.ServeMux
	cache *servingCache
	folds *foldTable    // per-test fold state, see fold.go
	reg   *obs.Registry // nil when observability is off
	guard *guard.Guard  // nil when overload protection is off

	responses *store.Collection // the stored sessions

	// repl is the node's replication view (nil on a plain single node);
	// replMaxLag > 0 makes /readyz report not-ready past that much
	// follower lag.
	repl       ReplicationStatus
	replMaxLag uint64
}

var _ http.Handler = (*Server)(nil)

// Option configures a Server.
type Option func(*Server)

// WithObservability exports the server's serving-path metrics (cache hit
// ratios, store index-vs-scan counts) into reg and mounts GET /metrics.
// Request counters and latency histograms are produced by obs.Middleware,
// which shares the same registry.
func WithObservability(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// New wires a server over prepared storage. It declares the secondary
// indexes the serving path relies on and subscribes to store changes for
// cache invalidation.
func New(db *store.DB, blobs *store.BlobStore, opts ...Option) (*Server, error) {
	if db == nil || blobs == nil {
		return nil, errors.New("server: nil storage")
	}
	responses := db.Collection(aggregator.ResponsesCollection)
	s := &Server{
		db: db, blobs: blobs, mux: http.NewServeMux(), cache: newServingCache(),
		folds: &foldTable{responses: responses}, responses: responses,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /api/tests", s.handleListTests)
	s.mux.HandleFunc("GET /api/tests/{id}", s.handleTestInfo)
	s.mux.HandleFunc("GET /api/tests/{id}/task", s.handleTask)
	s.mux.HandleFunc("GET /api/tests/{id}/pages/{page}/{file...}", s.handlePageFile)
	s.mux.HandleFunc("GET /api/tests/{id}/sessions", s.handleSessionList)
	s.mux.HandleFunc("POST /api/tests/{id}/sessions", s.handleSessionUpload)
	s.mux.HandleFunc("POST /api/tests/{id}/sessions:batch", s.handleSessionBatch)
	s.mux.HandleFunc("GET /api/tests/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /api/tests/{id}/fold", s.handleFold)
	s.mux.HandleFunc("DELETE /api/tests/{id}", s.handleTestDelete)
	s.mux.HandleFunc("GET /builder", s.handleBuilderPage)
	s.mux.HandleFunc("GET /dashboard/{id}", s.handleDashboard)
	s.mux.HandleFunc("POST /api/params/build", s.handleBuildParams)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)

	// The serving path's lookups are all by test id.
	responses.EnsureIndex("test_id")
	db.Collection(aggregator.PagesCollection).EnsureIndex("test_id")

	// Cache invalidation rides the store's change feed. Tests and pages
	// invalidate the test's metadata (and everything derived from it); a
	// new session only invalidates session-derived state.
	db.Collection(aggregator.TestsCollection).OnChange(func(_, id string, _ any) {
		s.cache.invalidateTest(id)
	})
	db.Collection(aggregator.PagesCollection).OnChange(func(_, id string, _ any) {
		s.invalidateByPrefixedID(id, s.cache.invalidateTest)
	})
	responses.OnChange(func(op, id string, note any) {
		testID, _, ok := strings.Cut(id, "/")
		if !ok {
			s.folds.dropAll()
			s.cache.invalidateAll()
			return
		}
		// Fold before bumping the cache generation: a reader that snapshots
		// the generation and then reads the fold state sees state at least
		// as new as the snapshot, so results cached under that generation
		// are never older than the generation they claim.
		// An upload handler's insert always carries a *foldNote, nil when it
		// had no live state to feed; every other writer carries nothing.
		n, inserted := note.(*foldNote)
		s.folds.observe(op, id, testID, n, inserted)
		s.cache.invalidateSessions(testID)
	})

	if s.reg != nil {
		s.mux.Handle("GET /metrics", obs.Handler(s.reg))
		s.registerGauges()
	}
	return s, nil
}

// invalidateByPrefixedID extracts the test id from a "testID/suffix"
// document id; unattributable ids flush the whole cache rather than risk
// staleness.
func (s *Server) invalidateByPrefixedID(id string, invalidate func(string)) {
	testID, _, ok := strings.Cut(id, "/")
	if !ok {
		s.cache.invalidateAll()
		return
	}
	invalidate(testID)
}

// registerGauges exports cache and store read-path statistics.
func (s *Server) registerGauges() {
	s.folds.registerGauges(s)
	reg, cache := s.reg, s.cache
	for _, g := range []struct {
		name         string
		hits, misses *atomic.Int64
	}{
		{"tests", &cache.testHits, &cache.testMisses},
		{"results", &cache.resultHits, &cache.resultMisses},
	} {
		hits, misses := g.hits, g.misses
		reg.RegisterGauge(fmt.Sprintf("kscope_cache_hits{cache=%q}", g.name), func() float64 {
			return float64(hits.Load())
		})
		reg.RegisterGauge(fmt.Sprintf("kscope_cache_misses{cache=%q}", g.name), func() float64 {
			return float64(misses.Load())
		})
		reg.RegisterGauge(fmt.Sprintf("kscope_cache_hit_ratio{cache=%q}", g.name), func() float64 {
			h, m := float64(hits.Load()), float64(misses.Load())
			if h+m == 0 {
				return 0
			}
			return h / (h + m)
		})
	}
	for _, name := range []string{
		aggregator.TestsCollection, aggregator.PagesCollection, aggregator.ResponsesCollection,
	} {
		coll := s.db.Collection(name)
		reg.RegisterGauge(fmt.Sprintf("kscope_store_index_hits_total{collection=%q}", name), func() float64 {
			return float64(coll.Stats().IndexHits)
		})
		reg.RegisterGauge(fmt.Sprintf("kscope_store_scans_total{collection=%q}", name), func() float64 {
			return float64(coll.Stats().Scans)
		})
	}
	// Durability counters: how often the WAL recovered and hit stable
	// storage — the campaign operator's crash-safety dashboard.
	db := s.db
	reg.RegisterGauge("kscope_store_recovered_tails_total", func() float64 {
		return float64(db.DurabilityStats().RecoveredTails)
	})
	reg.RegisterGauge("kscope_store_quarantined_records_total", func() float64 {
		return float64(db.DurabilityStats().QuarantinedRecords)
	})
	reg.RegisterGauge("kscope_store_wal_appends_total", func() float64 {
		return float64(db.DurabilityStats().WALAppends)
	})
	reg.RegisterGauge("kscope_store_fsyncs_total", func() float64 {
		return float64(db.DurabilityStats().Fsyncs)
	})
	reg.RegisterGauge("kscope_store_fsync_seconds_total", func() float64 {
		return float64(db.DurabilityStats().FsyncNanos) / 1e9
	})
	reg.RegisterGauge("kscope_store_cold_reads_total", func() float64 {
		return float64(db.DurabilityStats().ColdReads)
	})
}

// RouteLabel maps a request onto the low-cardinality route label used for
// request metrics (obs.Middleware's RouteFunc for this server's API).
func RouteLabel(r *http.Request) string {
	m, p := r.Method, r.URL.Path
	switch {
	case p == "/api/tests" || p == "/api/params/build" || p == "/builder" ||
		p == "/healthz" || p == "/readyz" || p == "/metrics":
		return m + " " + p
	case strings.HasPrefix(p, "/dashboard/"):
		return m + " /dashboard/{id}"
	case strings.HasPrefix(p, "/api/tests/"):
		rest := p[len("/api/tests/"):]
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			return m + " /api/tests/{id}"
		}
		switch tail := rest[i:]; {
		case tail == "/task", tail == "/sessions", tail == "/sessions:batch", tail == "/results", tail == "/fold":
			return m + " /api/tests/{id}" + tail
		case strings.HasPrefix(tail, "/pages/"):
			return m + " /api/tests/{id}/pages"
		}
	}
	return m + " other"
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures after the header is written can only be logged;
	// for the payloads here (all marshalable structs) they cannot occur.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeLoadError distinguishes "no such test" (404) from storage corruption
// or I/O trouble (500) when loading test metadata fails.
func writeLoadError(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrNotFound) {
		writeError(w, http.StatusNotFound, "test not found: %v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "loading test: %v", err)
}

// ServeHTTP dispatches to the API mux, through the overload guard when one
// is wired.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.replPreamble(w, r) {
		return
	}
	if s.guard == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	s.serveGuarded(w, r)
}

// PageView is the extension-facing description of one integrated page. It
// deliberately omits the aggregator's Expected field: control answers are
// the quality battery's ground truth and must never reach a participant.
type PageView struct {
	ID        string              `json:"id"`
	TestID    string              `json:"test_id"`
	LeftName  string              `json:"left"`
	RightName string              `json:"right"`
	Kind      aggregator.PageKind `json:"kind"`
}

// TestInfo is the extension-facing description of a test.
type TestInfo struct {
	TestID      string     `json:"test_id"`
	Description string     `json:"description"`
	Questions   []string   `json:"questions"`
	Pages       []PageView `json:"pages"`
	Sorted      bool       `json:"sorted,omitempty"` // params.Test.Sorted
}

// load returns the cached serving entry for a test, assembling (and
// caching) it from storage on a miss. Concurrent misses may both assemble;
// the generation check in putTest keeps a racing invalidation authoritative.
func (s *Server) load(testID string) (*testEntry, error) {
	if entry, ok := s.cache.test(testID); ok {
		return entry, nil
	}
	gen := s.cache.testGen(testID)
	prep, err := aggregator.LoadPrepared(s.db, testID)
	if err != nil {
		return nil, err
	}
	entry := newTestEntry(prep)
	s.cache.putTest(testID, gen, entry)
	return entry, nil
}

// loadInfo assembles the extension-facing TestInfo.
func (s *Server) loadInfo(testID string) (*TestInfo, error) {
	entry, err := s.load(testID)
	if err != nil {
		return nil, err
	}
	return entry.info, nil
}

// TestSummary is one row of the test listing.
type TestSummary struct {
	TestID       string `json:"test_id"`
	Description  string `json:"description"`
	Participants int    `json:"participants"`
	PageCount    int    `json:"page_count"`
	Sessions     int    `json:"sessions"`
}

func (s *Server) handleListTests(w http.ResponseWriter, _ *http.Request) {
	docs := s.db.Collection(aggregator.TestsCollection).Find(nil)
	responses := s.db.Collection(aggregator.ResponsesCollection)
	out := make([]TestSummary, 0, len(docs))
	for _, doc := range docs {
		summary := TestSummary{
			TestID:      doc.ID(),
			Description: docStringField(doc, "description"),
		}
		// Document.Int tolerates both live (typed) and WAL-replayed
		// (float64) numeric representations.
		if n, ok := doc.Int("participants"); ok {
			summary.Participants = n
		}
		if n, ok := doc.Int("page_count"); ok {
			summary.PageCount = n
		}
		summary.Sessions = responses.CountEq("test_id", doc.ID())
		out = append(out, summary)
	}
	writeJSON(w, http.StatusOK, out)
}

func docStringField(d store.Document, key string) string {
	v, _ := d[key].(string)
	return v
}

func (s *Server) handleTestInfo(w http.ResponseWriter, r *http.Request) {
	if entry := s.loadServing(w, r.PathValue("id")); entry != nil {
		writeJSON(w, http.StatusOK, entry.info)
	}
}

// Task is the posting payload for a crowdsourcing platform.
type Task struct {
	TestID          string  `json:"test_id"`
	Title           string  `json:"title"`
	Instructions    string  `json:"instructions"`
	RequiredWorkers int     `json:"required_workers"`
	PaymentUSD      float64 `json:"payment_usd"`
	PageCount       int     `json:"page_count"`
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	testID := r.PathValue("id")
	entry := s.loadServing(w, testID)
	if entry == nil {
		return
	}
	writeJSON(w, http.StatusOK, Task{
		TestID:          testID,
		Title:           "Kaleidoscope web comparison test " + testID,
		Instructions:    entry.prep.Test.TestDescription,
		RequiredWorkers: entry.prep.Test.ParticipantNum,
		PaymentUSD:      0.10,
		PageCount:       len(entry.prep.Pages),
	})
}

// handlePageFile serves one file of an integrated page straight from the
// blob store's own bytes. The payload is immutable once prepared and its
// SHA-256 is the ETag, so http.ServeContent answers a matching
// If-None-Match with 304, and HEAD and Range for free.
func (s *Server) handlePageFile(w http.ResponseWriter, r *http.Request) {
	file := r.PathValue("file")
	view, err := s.blobs.Open(r.PathValue("id") + "/" + r.PathValue("page") + "/" + file)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrInvalidKey) {
			writeError(w, http.StatusNotFound, "resource not found")
			return
		}
		writeError(w, http.StatusInternalServerError, "reading resource: %v", err)
		return
	}
	defer view.Close()
	h := w.Header()
	switch {
	case strings.HasSuffix(file, ".html"):
		h.Set("Content-Type", "text/html; charset=utf-8")
	case strings.HasSuffix(file, ".css"):
		h.Set("Content-Type", "text/css")
	case strings.HasSuffix(file, ".js"):
		h.Set("Content-Type", "text/javascript")
	default:
		h.Set("Content-Type", "application/octet-stream")
	}
	// Revalidate on every use, never "immutable": the URL names the test,
	// not the content, and a test id can be deleted and prepared again.
	h.Set("Cache-Control", "no-cache")
	h.Set("ETag", view.ETag)
	http.ServeContent(pageWriter{w}, r, "", time.Time{}, view.Content)
}

// pageWriter answers the one copy http.ServeContent makes of a whole or suffix
// read of a memory view — an *io.LimitedReader reaching the end of the view's
// *bytes.Reader — with one Write of the blob store's own slice, which is never
// written again (DESIGN.md §6.2); net/http's ReadFrom would move it through a
// fresh 32 KB buffer, a write(2) per 32 KB. A file (sendfile(2)), a Range
// that ends early and the multipart pipe go to the wrapped writer as before.
type pageWriter struct{ http.ResponseWriter }

func (w pageWriter) ReadFrom(src io.Reader) (int64, error) {
	if lr, ok := src.(*io.LimitedReader); ok {
		if mem, ok := lr.R.(*bytes.Reader); ok && lr.N >= int64(mem.Len()) {
			return mem.WriteTo(w.ResponseWriter)
		}
	}
	return io.Copy(w.ResponseWriter, src)
}

// SessionUpload is what the extension posts when a participant finishes.
// Controls carry only the participant's answers; the Expected field is
// filled in server-side from storage (any client-supplied value is
// discarded — participants cannot vouch for their own control answers).
type SessionUpload struct {
	TestID       string                   `json:"test_id"`
	WorkerID     string                   `json:"worker_id"`
	Demographics crowd.Demographics       `json:"demographics"`
	Responses    []questionnaire.Response `json:"responses"`
	Behaviors    []crowd.Behavior         `json:"behaviors"`
	Controls     []quality.ControlOutcome `json:"controls"`
}

// workerSession is the part of the upload the quality battery judges.
func (u *SessionUpload) workerSession() quality.WorkerSession {
	return quality.WorkerSession{
		WorkerID:  u.WorkerID,
		Responses: u.Responses,
		Behaviors: u.Behaviors,
		Controls:  u.Controls,
	}
}

// Validate checks the upload against the stored test.
func (u *SessionUpload) Validate(info *TestInfo) error {
	return u.validate(info.TestID, pageIndex(info.Pages))
}

// validate is Validate against a page index built once (testEntry.pages).
func (u *SessionUpload) validate(testID string, pages map[string]int) error {
	if u.WorkerID == "" {
		return errors.New("missing worker_id")
	}
	if u.TestID != testID {
		return fmt.Errorf("test_id %q does not match %q", u.TestID, testID)
	}
	for _, r := range u.Responses {
		if err := r.Validate(); err != nil {
			return err
		}
		// A response carrying someone else's identifiers must not be
		// persisted under this session: the stored raw is what conclusions
		// and quality control replay, and a contradicting nested id would
		// attribute the answer to the wrong test or worker.
		if r.TestID != u.TestID {
			return fmt.Errorf("response test_id %q contradicts session test %q", r.TestID, u.TestID)
		}
		if r.WorkerID != u.WorkerID {
			return fmt.Errorf("response worker_id %q contradicts session worker %q", r.WorkerID, u.WorkerID)
		}
		if _, known := pages[r.PageID]; !known {
			return fmt.Errorf("response references unknown page %q", r.PageID)
		}
	}
	return nil
}

// handleSessionUpload stores one session through the write gate (DESIGN.md
// §6.1) and the batch's commit; what is its own is the 1 MiB body, the
// one-object decode and the one element's answer, 201 or 409.
func (s *Server) handleSessionUpload(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	testID := r.PathValue("id")
	g, ok := s.admitWrite(w, "session storage")
	if !ok {
		return
	}
	defer g.report(guard.Canceled)
	entry := g.load(w, testID)
	if entry == nil {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSessionBytes)
	sr := acquireSessionReader(r.Body)
	defer sr.release()
	upload := &sr.upload
	_, err := sr.peek()
	if err == nil {
		_, err = sr.decode()
	}
	if err == nil {
		err = sr.requireEOF()
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"session exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding session: %v", err)
		return
	}
	// The decode may have blocked on a slow or dead connection; do not
	// validate, score, or persist work for a client that already hung up.
	if err := ctx.Err(); err != nil {
		writeError(w, http.StatusRequestTimeout, "client canceled request: %v", err)
		return
	}
	// Validate + score through the shared batch path so the two endpoints
	// cannot drift: one implementation decides what a storable session is.
	doc, err := s.buildSessionDoc(testID, entry, sr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Last disconnect check before the write: a canceled request must not
	// persist a session the client will re-upload.
	if err := ctx.Err(); err != nil {
		writeError(w, http.StatusRequestTimeout, "client canceled request: %v", err)
		return
	}
	// The handler built the document and hands it over: no defensive clone,
	// and the session's reduction rides along for the fold state.
	var note *foldNote
	if s.folds.feeding(testID, entry) {
		note = entry.reduce(upload)
	}
	errs, ok := g.commit(w, "storing session", []store.Document{doc}, []any{note})
	if !ok {
		return
	}
	g.report(guard.Success)
	if errs[0] != nil {
		writeError(w, http.StatusConflict,
			"worker %q already uploaded a session for test %q", upload.WorkerID, testID)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "stored", "worker_id": upload.WorkerID})
}

// handleTestDelete serves DELETE /api/tests/{id}: the end of a test's
// lifecycle. It removes the test document first (so fresh loads 404
// immediately), then sweeps the test's page documents, stored sessions, and
// blob prefix (releasing CAS refcounts, so content shared with other
// tenants survives while this test's references are dropped), and finally
// drops the test's serving-cache entries and fold state.
//
// The sweep is idempotent: a retry after a partially failed delete (or
// after a lost response) cleans up whatever remains, and 404 only means
// nothing of the test exists anymore — which a deleting client can treat as
// success.
func (s *Server) handleTestDelete(w http.ResponseWriter, r *http.Request) {
	testID := r.PathValue("id")
	// A delete is a store write like an upload (DESIGN.md §6.1), and a sweep
	// that deleted something is evidence of store health.
	g, ok := s.admitWrite(w, "test deletion")
	if !ok {
		return
	}
	defer g.report(guard.Canceled)
	fail := func(err error) { g.fail(w, fmt.Sprintf("deleting test %q", testID), err) }

	tests := s.db.Collection(aggregator.TestsCollection)
	hadDoc := tests.Has(testID)
	if err := tests.Delete(testID); err != nil {
		fail(err)
		return
	}

	var swept [2]int // page documents, then sessions
	for i, name := range []string{aggregator.PagesCollection, aggregator.ResponsesCollection} {
		coll := s.db.Collection(name)
		for _, id := range coll.IDsEq("test_id", testID) {
			if err := coll.Delete(id); err != nil {
				fail(err)
				return
			}
			swept[i]++
		}
	}
	npages, nsessions := swept[0], swept[1]
	nblobs, err := s.blobs.DeletePrefix(testID + "/")
	if err != nil {
		fail(err)
		return
	}

	// The OnChange hooks already invalidated the cache per deleted document;
	// this drops it again, with the fold state (latched decision included),
	// so a deleted test can never be served until it is created again.
	s.cache.invalidateTest(testID)
	s.folds.purge(testID)

	if !hadDoc && npages == 0 && nsessions == 0 && nblobs == 0 {
		writeError(w, http.StatusNotFound, "no such test %q", testID)
		return
	}
	g.report(guard.Success)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "deleted",
		"test_id":  testID,
		"pages":    npages,
		"sessions": nsessions,
		"blobs":    nblobs,
	})
}

// PageResult is the concluded tally for one integrated page.
type PageResult struct {
	PageID    string              `json:"page_id"`
	LeftName  string              `json:"left"`
	RightName string              `json:"right"`
	Kind      aggregator.PageKind `json:"kind"`
	Tally     questionnaire.Tally `json:"tally"`
}

// Results is the conclusion payload.
type Results struct {
	TestID string `json:"test_id"`
	// Workers is the number of sessions considered.
	Workers int `json:"workers"`
	// Filtered reports whether quality control was applied.
	Filtered bool `json:"filtered"`
	// DroppedWorkers counts QC rejections (0 when unfiltered).
	DroppedWorkers int `json:"dropped_workers"`
	// KeptWorkers lists the worker ids that passed quality control
	// (empty when unfiltered).
	KeptWorkers []string     `json:"kept_workers,omitempty"`
	Pages       []PageResult `json:"pages"`
	// Concluded and Decision report the sequential engine's verdict when
	// early stopping is enabled and the test has been decided. Both are
	// omitted (and the payload byte-identical to a server without the
	// engine) while the test is undecided.
	Concluded bool                `json:"concluded,omitempty"`
	Decision  *earlystop.Decision `json:"decision,omitempty"`
}

// Sessions decodes every stored session of a test, in document-id (worker)
// order, into a slice that is the caller's.
func (s *Server) Sessions(testID string) ([]SessionUpload, error) {
	out := []SessionUpload{}
	err := eachStoredSession(s.responses, testID, func(_ string, u *SessionUpload) { out = append(out, *u) })
	return out, err
}

// handleSessionList returns every stored session of a test verbatim, in
// document-id (worker) order: a deployment-face way to export a test's raw
// sessions, which a shard router merges across the fleet.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	testID := r.PathValue("id")
	if s.loadServing(w, testID) == nil {
		return
	}
	uploads, err := s.Sessions(testID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "loading sessions: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, uploads)
}

// defaultQC derives the paper's default battery for a test: every real
// page×question answered (not for a sorted test, whose participants answer
// only the pairs their sort visits), engagement bounds, zero control
// failures.
func defaultQC(entry *testEntry) *quality.Config {
	return defaultQCInfo(entry.info)
}

// defaultQCInfo is defaultQC computed from the extension-facing TestInfo
// alone — the page views carry their kind, so the real-page count needs
// no Prepared. This is what lets ConcludeUploads, given only the TestInfo a
// deployment serves, apply the exact battery a single node applies.
func defaultQCInfo(info *TestInfo) *quality.Config {
	required := info.realQuestions()
	if info.Sorted {
		required = 0
	}
	cfg := quality.DefaultConfig(required)
	return &cfg
}

// realQuestions counts the test's (real page, question) pairs: the answers
// a complete session gives, and the sequential engine's evidence streams.
func (info *TestInfo) realQuestions() int {
	real := 0
	for _, p := range info.Pages {
		if p.Kind == aggregator.KindReal {
			real++
		}
	}
	return real * len(info.Questions)
}

// ConcludeUploads tallies a conclusion for an explicit session set against
// a test's page spine, from scratch: the oracle a fleet's served results
// are held to — FoldState.Conclude over the shards' merged states must
// produce these bytes for the union of their sessions in worker-id order.
func ConcludeUploads(info *TestInfo, uploads []SessionUpload, useQC bool) (*Results, error) {
	var qc *quality.Config
	if useQC {
		qc = defaultQCInfo(info)
	}
	return concludeUploads(info, uploads, qc)
}

// ConcludeScratch computes results for a test from its stored sessions,
// decoded from storage past the results cache and the fold state, with,
// when useQC is set, the default battery the HTTP results surface applies
// for ?quality=1. It is the from-scratch reference the incremental engine
// is differentially tested against, and the oracle the load harness and
// the benchmarks compare the serving path with.
func (s *Server) ConcludeScratch(testID string, useQC bool) (*Results, error) {
	entry, err := s.load(testID)
	if err != nil {
		return nil, err
	}
	uploads, err := s.Sessions(testID)
	if err != nil {
		return nil, err
	}
	var qc *quality.Config
	if useQC {
		qc = defaultQC(entry)
	}
	return concludeUploads(entry.info, uploads, qc)
}

func concludeUploads(info *TestInfo, uploads []SessionUpload, qc *quality.Config) (*Results, error) {
	res := &Results{TestID: info.TestID, Workers: len(uploads)}

	sessions := make([]quality.WorkerSession, len(uploads))
	for i := range uploads {
		sessions[i] = uploads[i].workerSession()
	}
	if qc != nil && len(sessions) > 0 {
		kept, dropped, _, err := quality.Filter(sessions, *qc)
		if err != nil {
			return nil, err
		}
		sessions = kept
		res.Filtered = true
		res.DroppedWorkers = len(dropped)
		res.Workers = len(kept)
		for _, k := range kept {
			res.KeptWorkers = append(res.KeptWorkers, k.WorkerID)
		}
	}

	tallies := make(map[string]*questionnaire.Tally)
	for _, sess := range sessions {
		for _, r := range sess.Responses {
			t, ok := tallies[r.PageID]
			if !ok {
				t = &questionnaire.Tally{}
				tallies[r.PageID] = t
			}
			t.Add(r.Choice)
		}
	}
	res.Pages = pageSpine(info, tallies)
	return res, nil
}

// concludeCached serves the HTTP results surface: raw and default-battery
// conclusions are cached per test, keyed by (test, quality-on), until a new
// session arrives, and cache misses are computed from the test's fold state.
//
// Freshness invariant: the generation is snapshotted before anything is
// read, so every read observes state at least as new as the snapshot and
// putResults can never pin results older than the generation they are
// cached under. When an upload races the fill, putResults rejects the
// (still perfectly valid) result; one bounded recompute re-attempts the
// fill from the newer state so interleaved upload/results traffic does not
// degrade into a permanently cold results cache.
func (s *Server) concludeCached(ctx context.Context, testID string, useQC bool) (*Results, error) {
	key := resultsKey{testID: testID, quality: useQC}
	if res, ok := s.cache.resultsFor(key); ok {
		return res, nil
	}
	var res *Results
	for attempt := 0; attempt < 2; attempt++ {
		// A disconnected client gets no tally: concluding can mean folding
		// thousands of stored sessions, and nobody is listening anymore.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gen := s.cache.gen(testID)
		entry, err := s.load(testID)
		if err != nil {
			return nil, err
		}
		res, err = s.folds.results(testID, entry, useQC)
		if err != nil {
			return nil, err
		}
		if s.cache.putResults(key, gen, res) {
			break
		}
	}
	return res, nil
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	testID := r.PathValue("id")
	useQC := r.URL.Query().Get("quality") == "1"
	res, err := s.concludeCached(r.Context(), testID, useQC)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			writeError(w, http.StatusNotFound, "test not found: %v", err)
			return
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusRequestTimeout, "client canceled request: %v", err)
			return
		}
		// Corrupt sessions or stored params are server-side faults.
		writeError(w, http.StatusInternalServerError, "concluding: %v", err)
		return
	}
	s.markDegraded(w)
	writeJSON(w, http.StatusOK, s.withDecision(testID, res))
}

// handleFold serves GET /api/tests/{id}/fold, the node-internal read a shard
// router merges ?quality=1 results from: this node's FoldState of the test.
func (s *Server) handleFold(w http.ResponseWriter, r *http.Request) {
	testID := r.PathValue("id")
	entry := s.loadServing(w, testID)
	if entry == nil {
		return
	}
	fs, err := s.folds.state(testID, entry)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "folding: %v", err)
		return
	}
	// writeJSON's bytes, without encoding/json's pass over MarshalJSON's.
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(fs.doc().append(make([]byte, 0, 1024)), '\n'))
}

// withDecision attaches the sequential engine's verdict to a results
// payload. The cached Results object is never mutated — decision metadata
// rides a shallow copy, so the cache keeps serving the engine-free shape
// and undecided tests stay byte-identical to a server without early
// stopping.
func (s *Server) withDecision(testID string, res *Results) *Results {
	d := s.folds.decision(testID)
	if d == nil {
		return res
	}
	cp := *res
	cp.Concluded = true
	cp.Decision = d
	return &cp
}
