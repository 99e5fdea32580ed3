package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// trackedBody is a request body that remembers whether anything read it.
type trackedBody struct {
	r    io.Reader
	read bool
}

func (b *trackedBody) Read(p []byte) (int, error) {
	b.read = true
	return b.r.Read(p)
}

// writeRig is one cell of the fault matrix: the standard test in a
// dir-backed, fault-injectable store, served with the row's options.
type writeRig struct {
	srv   *Server
	prep  *aggregator.Prepared
	ffs   *store.FaultFS
	g     *guard.Guard // nil on an unguarded row
	repl  *fakeRepl    // nil on an unreplicated row
	clock time.Time    // the guard's
}

// halfOpen trips the rig's breaker, lets its cooldown pass and leaves the
// disk failing: the next write is the breaker's probe.
func (rig *writeRig) halfOpen(t *testing.T) {
	done, ok := rig.g.Breaker().Allow()
	if !ok {
		t.Fatal("breaker refused before the fault")
	}
	done(guard.Failure)
	rig.clock = rig.clock.Add(time.Minute)
	rig.ffs.FailAppendsAfter(0, nil, false)
}

// TestWriteFaultMatrix sends the same faults through the node's three store
// writes — a single upload, a one-element batch and, where the row applies,
// a delete — and holds each to one answer: status, Retry-After, the fenced
// and concluded markers, what is stored afterwards, and the breaker's state.
// At BreakerThreshold 1 one Failure shows as open; a Success or a Canceled
// leaves the breaker closed. A probe row's write is the half-open breaker's
// probe and reaches no WAL, so the breaker stays half-open — not closed by a
// disk that is still failing — until a write that does reach it, once the
// disk heals. FaultFS injects write faults only, so the load fault is a
// stored test that has lost a page document: LoadPrepared's non-not-found
// error, as a corrupt store gives.
func TestWriteFaultMatrix(t *testing.T) {
	const worker = "w-matrix"
	surfaces := []struct {
		name, method, suffix string
		body                 func(up SessionUpload) any // nil: no body
	}{
		{"upload", http.MethodPost, "/sessions", func(up SessionUpload) any { return up }},
		{"batch", http.MethodPost, "/sessions:batch", func(up SessionUpload) any { return []SessionUpload{up} }},
		{"delete", http.MethodDelete, "", nil},
	}
	rows := []struct {
		name      string
		threshold int       // breaker threshold; 0 runs unguarded
		repl      *fakeRepl // copied per cell
		early     bool      // early stopping on
		testID    string    // the URL's test; "" is srv-test
		delete    bool      // the row applies to DELETE too
		cancel    bool      // the client is gone before the request is served
		arrange   func(t *testing.T, rig *writeRig)
		code      int
		retry     bool // Retry-After present
		fenced    bool
		concluded bool
		open      bool // breaker open afterwards
		probe     bool // the request is the half-open breaker's probe
		unread    bool // the body is never read
		stored    int  // srv-test sessions afterwards
	}{
		{
			name: "breaker-open", threshold: 1, delete: true,
			arrange: func(t *testing.T, rig *writeRig) {
				done, ok := rig.g.Breaker().Allow()
				if !ok {
					t.Fatal("breaker refused before the fault")
				}
				done(guard.Failure)
			},
			code: http.StatusServiceUnavailable, retry: true, open: true, unread: true,
		},
		{
			name: "test-missing", threshold: 1, testID: "ghost", delete: true,
			code: http.StatusNotFound,
		},
		{
			name: "load-fault", threshold: 1,
			arrange: func(t *testing.T, rig *writeRig) {
				pages := rig.srv.db.Collection(aggregator.PagesCollection)
				if err := pages.Delete(pages.FindEq("test_id", "srv-test")[0].ID()); err != nil {
					t.Fatal(err)
				}
			},
			code: http.StatusInternalServerError, open: true,
		},
		{
			name: "decided", threshold: 1, early: true,
			arrange: func(t *testing.T, rig *writeRig) {
				for i := 0; i < 8; i++ {
					if r := uploadOne(t, rig.srv, rig.prep, workerName(i), questionnaire.ChoiceLeft); r.code != http.StatusCreated {
						t.Fatalf("deciding upload %d = %d: %s", i, r.code, r.body)
					}
				}
			},
			code: http.StatusOK, concluded: true, stored: 8,
		},
		{
			name: "half-open-test-missing", threshold: 1, testID: "ghost", delete: true,
			arrange: func(t *testing.T, rig *writeRig) { rig.halfOpen(t) },
			code:    http.StatusNotFound, probe: true,
		},
		{
			name: "half-open-decided", threshold: 1, early: true,
			arrange: func(t *testing.T, rig *writeRig) {
				for i := 0; i < 8; i++ {
					if r := uploadOne(t, rig.srv, rig.prep, workerName(i), questionnaire.ChoiceLeft); r.code != http.StatusCreated {
						t.Fatalf("deciding upload %d = %d: %s", i, r.code, r.body)
					}
				}
				rig.halfOpen(t)
			},
			code: http.StatusOK, concluded: true, probe: true, stored: 8,
		},
		{
			name: "duplicate-barrier-fails", threshold: 1, repl: &fakeRepl{epoch: 1, state: "steady"},
			arrange: func(t *testing.T, rig *writeRig) {
				if rec := postUpload(t, rig.srv, rig.prep, worker); rec.Code != http.StatusCreated {
					t.Fatalf("first upload = %d: %s", rec.Code, rec.Body.String())
				}
				rig.repl.barrierErr = errors.New("follower unreachable")
			},
			code: http.StatusServiceUnavailable, retry: true, open: true, stored: 1,
		},
		{
			name: "write-fault-guarded", threshold: 1, delete: true,
			arrange: func(t *testing.T, rig *writeRig) { rig.ffs.FailAppendsAfter(0, nil, false) },
			code:    http.StatusServiceUnavailable, retry: true, open: true,
		},
		{
			// One failed write charges the breaker once: at threshold 2 it
			// stays closed.
			name: "write-fault-charged-once", threshold: 2, delete: true,
			arrange: func(t *testing.T, rig *writeRig) { rig.ffs.FailAppendsAfter(0, nil, false) },
			code:    http.StatusServiceUnavailable, retry: true,
		},
		{
			name: "write-fault-unguarded", delete: true,
			arrange: func(t *testing.T, rig *writeRig) { rig.ffs.FailAppendsAfter(0, nil, false) },
			code:    http.StatusInternalServerError,
		},
		{
			name: "fenced", threshold: 1, repl: &fakeRepl{epoch: 1, fenced: true, state: "fenced"}, delete: true,
			code: http.StatusServiceUnavailable, retry: true, fenced: true, unread: true,
		},
		{
			name: "client-canceled", threshold: 1, cancel: true,
			code: http.StatusRequestTimeout,
		},
	}
	for _, row := range rows {
		for _, sf := range surfaces {
			if sf.body == nil && !row.delete {
				continue
			}
			t.Run(row.name+"/"+sf.name, func(t *testing.T) {
				rig := &writeRig{ffs: store.NewFaultFS()}
				db, err := store.Open(filepath.Join(t.TempDir(), "db"), store.WithFileSystem(rig.ffs))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(db.Close)
				var opts []Option
				if row.threshold > 0 {
					rig.g = guard.New(guard.Config{
						BreakerThreshold: row.threshold,
						BreakerCooldown:  time.Minute,
						RetryAfter:       time.Second,
						Now:              func() time.Time { return rig.clock },
					})
					opts = append(opts, WithGuard(rig.g))
				}
				if row.repl != nil {
					r := *row.repl
					rig.repl = &r
					opts = append(opts, WithReplication(rig.repl, 0))
				}
				if row.early {
					opts = append(opts, WithEarlyStop(EarlyStopConfig{Alpha: 0.05}))
				}
				rig.srv, rig.prep = prepTestOn(t, db, store.NewBlobStore(), "srv-test", opts...)
				if row.arrange != nil {
					row.arrange(t, rig)
				}

				testID := row.testID
				if testID == "" {
					testID = "srv-test"
				}
				body := &trackedBody{r: bytes.NewReader(nil)}
				if sf.body != nil {
					payload, err := json.Marshal(sf.body(sampleUpload(rig.prep, worker, questionnaire.ChoiceLeft)))
					if err != nil {
						t.Fatal(err)
					}
					body.r = bytes.NewReader(payload)
				}
				req := httptest.NewRequest(sf.method, "/api/tests/"+testID+sf.suffix, body)
				if row.cancel {
					ctx, cancel := context.WithCancel(req.Context())
					cancel()
					req = req.WithContext(ctx)
				}
				rec := httptest.NewRecorder()
				rig.srv.ServeHTTP(rec, req)

				if rec.Code != row.code {
					t.Fatalf("status = %d, want %d: %s", rec.Code, row.code, rec.Body.String())
				}
				h := rec.Header()
				if got := h.Get("Retry-After") != ""; got != row.retry {
					t.Errorf("Retry-After present = %v, want %v", got, row.retry)
				}
				if got := h.Get(FencedHeader) == "1"; got != row.fenced {
					t.Errorf("%s = %q, want set %v", FencedHeader, h.Get(FencedHeader), row.fenced)
				}
				if got := h.Get(ConcludedHeader) == "1"; got != row.concluded {
					t.Errorf("%s = %q, want set %v", ConcludedHeader, h.Get(ConcludedHeader), row.concluded)
				}
				if row.unread && body.read {
					t.Error("the request body was read")
				}
				if rig.g != nil {
					want := guard.StateClosed
					switch {
					case row.open:
						want = guard.StateOpen
					case row.probe:
						want = guard.StateHalfOpen
					}
					if got := rig.g.Breaker().State(); got != want {
						t.Errorf("breaker = %v, want %v", got, want)
					}
				}
				if got := rig.srv.responses.CountEq("test_id", "srv-test"); got != row.stored {
					t.Errorf("stored sessions = %d, want %d", got, row.stored)
				}
				if _, err := rig.srv.db.Collection(aggregator.TestsCollection).Get("srv-test"); err != nil {
					t.Errorf("the test did not survive the refused write: %v", err)
				}
				if row.probe {
					rig.ffs.Reset()
					if rec := doJSON(t, rig.srv, http.MethodDelete, "/api/tests/srv-test", nil, nil); rec.Code != http.StatusOK {
						t.Fatalf("DELETE once the disk healed = %d: %s", rec.Code, rec.Body.String())
					}
					if got := rig.g.Breaker().State(); got != guard.StateClosed {
						t.Errorf("breaker after a real write on a healed disk = %v, want closed", got)
					}
				}
			})
		}
	}
}
