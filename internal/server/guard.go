package server

import (
	"errors"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/store"
)

// DegradedHeader marks a read answered while the store circuit breaker was
// open: the node is refusing writes. The answer itself is as current as a
// healthy node's. Clients may keep working from it; operators alert on it.
const DegradedHeader = "X-Kscope-Degraded"

// WithGuard wires an overload-protection layer into the server: admission
// control and per-worker rate limiting around every API request, and the
// store circuit breaker around the store writes. /healthz, /readyz, and
// /metrics are exempt from admission so the server stays observable under
// overload.
func WithGuard(g *guard.Guard) Option {
	return func(s *Server) { s.guard = g }
}

// classifyRequest maps a request onto its admission class. The boolean is
// false for exempt paths (health, readiness, metrics), which must answer
// even when the API is saturated.
func classifyRequest(r *http.Request) (guard.Class, bool) {
	p := r.URL.Path
	switch p {
	case "/healthz", "/readyz", "/metrics":
		return 0, false
	}
	switch {
	case isWrite(r):
		// Admitting deletes through the read class would let a churn-heavy
		// campaign starve real reads.
		return guard.ClassUpload, true
	case strings.HasSuffix(p, "/results"):
		return guard.ClassResults, true
	default:
		return guard.ClassRead, true
	}
}

// workerKey identifies the client for per-worker rate limiting: the
// extension's worker id header when present, the remote host otherwise.
func workerKey(r *http.Request) string {
	if id := r.Header.Get(guard.WorkerIDHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a Retry-After value: integer seconds, rounded
// up, at least 1 (RFC 9110 allows only whole seconds).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeShed sends an overload rejection. Every shed — 429 from admission or
// rate limiting, 503 from the open breaker — carries Retry-After so a
// well-behaved client backs off by the server's clock, not its own guess.
func writeShed(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	writeError(w, status, format, args...)
}

// serveGuarded runs the rate-limit and admission gates before dispatching.
func (s *Server) serveGuarded(w http.ResponseWriter, r *http.Request) {
	class, limited := classifyRequest(r)
	if !limited {
		s.mux.ServeHTTP(w, r)
		return
	}
	if wait, ok := s.guard.AllowWorker(workerKey(r)); !ok {
		writeShed(w, http.StatusTooManyRequests, wait,
			"worker rate limit exceeded; retry after the indicated delay")
		return
	}
	release, ok := s.guard.Admit(r.Context().Done(), class)
	if !ok {
		writeShed(w, http.StatusTooManyRequests, s.guard.RetryAfter(),
			"server overloaded (%s class at capacity)", class)
		return
	}
	defer release()
	s.mux.ServeHTTP(w, r)
}

// markDegraded marks a read's answer while the store breaker is open: the
// node refuses writes. What it serves is its live memory all the same —
// every document read is — so a read never asks the breaker.
func (s *Server) markDegraded(w http.ResponseWriter) {
	if s.guard != nil && s.guard.Breaker().State() == guard.StateOpen {
		w.Header().Set(DegradedHeader, "1")
		s.guard.NoteDegraded()
	}
}

// writeUnavailable answers a write the open breaker refuses: 503 +
// Retry-After, the honest "come back when the store recovers".
func (s *Server) writeUnavailable(w http.ResponseWriter, what string) {
	s.guard.NoteUnavailable()
	writeShed(w, http.StatusServiceUnavailable, s.guard.RetryAfter(),
		"%s unavailable: storage degraded, retry after the indicated delay", what)
}

// loadServing is the read handlers' test load: load, with the degraded
// marker set. It returns nil once it has answered the load error.
func (s *Server) loadServing(w http.ResponseWriter, testID string) *testEntry {
	entry, err := s.load(testID)
	if err != nil {
		writeLoadError(w, err)
		return nil
	}
	s.markDegraded(w)
	return entry
}

// isWrite reports whether a request is a store write — a session upload, a
// batch, a test delete. Writes are admitted in the upload class and refused
// outright on a fenced node.
func isWrite(r *http.Request) bool {
	return r.Method == http.MethodPost || r.Method == http.MethodDelete
}

// writeGate is one store write's passage through the node's write protocol
// (DESIGN.md §6.1). A handler holds it as a value and defers
// report(guard.Canceled).
type writeGate struct {
	s    *Server
	done func(guard.Outcome) // the breaker's, until reported; nil unguarded
}

// admitWrite asks the store breaker for a write. A write is uncacheable, so
// a refusal answers 503 + Retry-After for what before any body is read; a
// half-open breaker admits the write as its recovery probe.
func (s *Server) admitWrite(w http.ResponseWriter, what string) (writeGate, bool) {
	g := writeGate{s: s}
	if s.guard == nil {
		return g, true
	}
	done, ok := s.guard.Breaker().Allow()
	if !ok {
		s.writeUnavailable(w, what)
	}
	g.done = done
	return g, ok
}

// report hands the write's outcome to the breaker, the first time only. A
// request that bails before the store reports Canceled, which frees a probe
// slot without judging store health.
func (g *writeGate) report(o guard.Outcome) {
	if g.done != nil {
		g.done(o)
		g.done = nil
	}
}

// load loads the test an upload is for: 404 or 500 as the load fails, and
// only the 500 (corruption, I/O trouble) is a store Failure. A test the
// sequential engine has decided spends no more crowd: 200 +
// X-Kscope-Concluded, nothing stored. Neither a 404 nor that ack reached the
// WAL, so both leave the deferred Canceled. It returns nil once it has
// answered.
func (g *writeGate) load(w http.ResponseWriter, testID string) *testEntry {
	entry, err := g.s.load(testID)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			g.report(guard.Failure)
		}
		writeLoadError(w, err)
		return nil
	}
	if d := g.s.folds.decision(testID); d != nil {
		g.s.folds.rejects.Add(1)
		w.Header().Set(ConcludedHeader, "1")
		writeJSON(w, http.StatusOK, map[string]any{"status": "concluded", "test_id": testID, "decision": d})
		return nil
	}
	return entry
}

// fail answers a failed store write: Failure for the breaker, then the
// failover answer on a fenced node, 503 + Retry-After with the guard on (an
// outage the breaker will judge, not a terminal error), 500 without.
func (g *writeGate) fail(w http.ResponseWriter, what string, err error) {
	g.report(guard.Failure)
	switch {
	case g.s.replWriteRefused(w, err):
	case g.s.guard != nil:
		writeShed(w, http.StatusServiceUnavailable, g.s.guard.RetryAfter(),
			"%s failed: %v; retry after the indicated delay", what, err)
	default:
		writeError(w, http.StatusInternalServerError, "%s: %v", what, err)
	}
}

// commit is the session commit under both upload endpoints: docs and their
// fold notes in one WAL group commit. A duplicate acknowledges a record an
// earlier attempt stored, maybe unreplicated, so it waits on the
// replication barrier; any other error is the gate's failure answer. It
// returns each document's error, nil or store.ErrDuplicateID, and false once
// it has answered.
func (g *writeGate) commit(w http.ResponseWriter, what string, docs []store.Document, notes []any) ([]error, bool) {
	_, errs := g.s.responses.InsertUniqueNoted(docs, notes)
	dup := false
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, store.ErrDuplicateID):
			dup = true
		default:
			g.fail(w, what, err)
			return nil, false
		}
	}
	if dup && !g.s.replAckBarrier(w) {
		g.report(guard.Failure)
		return nil, false
	}
	return errs, true
}

// handleReady serves GET /readyz: 200 while the server can do real work,
// 503 + Retry-After while the store breaker is open, the node is fenced,
// or the replication follower has fallen past the configured lag bound.
// Load balancers use it to steer new crowds away from a degraded instance;
// /healthz stays a pure liveness check.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	body := map[string]string{"status": "ready"}
	status := http.StatusOK
	if s.guard != nil {
		state := s.guard.Breaker().State()
		body["breaker"] = state.String()
		if state == guard.StateOpen {
			body["status"] = "degraded"
			status = http.StatusServiceUnavailable
		}
	}
	if s.repl != nil {
		lagFrames, _ := s.repl.Lag()
		body["replication"] = s.repl.State()
		body["epoch"] = strconv.FormatUint(s.repl.Epoch(), 10)
		body["repl_lag_frames"] = strconv.FormatUint(lagFrames, 10)
		switch {
		case s.repl.Fenced():
			body["status"] = "fenced"
			status = http.StatusServiceUnavailable
		case s.replMaxLag > 0 && lagFrames > s.replMaxLag:
			body["status"] = "replication-lagging"
			status = http.StatusServiceUnavailable
		}
	}
	if status != http.StatusOK {
		retry := time.Second
		if s.guard != nil {
			retry = s.guard.RetryAfter()
		}
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
	}
	writeJSON(w, status, body)
}
