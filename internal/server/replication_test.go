package server

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"kaleidoscope/internal/guard"
)

// fakeRepl is a scriptable ReplicationStatus.
type fakeRepl struct {
	epoch      uint64
	fenced     bool
	lagFrames  uint64
	lagBytes   int64
	state      string
	barrierErr error
	barriers   int
}

func (f *fakeRepl) Epoch() uint64        { return f.epoch }
func (f *fakeRepl) Fenced() bool         { return f.fenced }
func (f *fakeRepl) Lag() (uint64, int64) { return f.lagFrames, f.lagBytes }
func (f *fakeRepl) State() string        { return f.state }
func (f *fakeRepl) Barrier() error       { f.barriers++; return f.barrierErr }

func TestEpochHeaderOnEveryResponse(t *testing.T) {
	srv, _ := prepTest(t, WithReplication(&fakeRepl{epoch: 3, state: "steady"}, 0))
	for _, path := range []string{"/healthz", "/readyz", "/api/tests/srv-test", "/api/tests/ghost"} {
		rec := doJSON(t, srv, http.MethodGet, path, nil, nil)
		if got := rec.Header().Get(EpochHeader); got != "3" {
			t.Errorf("GET %s: %s = %q, want 3", path, EpochHeader, got)
		}
	}
}

func TestStaticEpochOption(t *testing.T) {
	srv, _ := prepTest(t, WithEpoch(7))
	rec := doJSON(t, srv, http.MethodGet, "/healthz", nil, nil)
	if got := rec.Header().Get(EpochHeader); got != "7" {
		t.Errorf("%s = %q, want 7", EpochHeader, got)
	}
	rec = doJSON(t, srv, http.MethodGet, "/readyz", nil, nil)
	if rec.Code != http.StatusOK {
		t.Errorf("detached primary readyz = %d, want 200", rec.Code)
	}
}

// TestFencedNodeRefusesWrites: every store write — an upload and a delete
// alike — is refused on a fenced node before it reaches the store or the
// breaker, and reads stay available.
func TestFencedNodeRefusesWrites(t *testing.T) {
	for _, method := range []string{http.MethodPost, http.MethodDelete} {
		t.Run(method, func(t *testing.T) {
			repl := &fakeRepl{epoch: 1, fenced: true, state: "fenced"}
			g := guard.New(guard.Config{BreakerThreshold: 1, BreakerCooldown: time.Minute})
			srv, prep := prepTest(t, WithReplication(repl, 0), WithGuard(g))
			path, payload := "/api/tests/srv-test", []byte(nil)
			if method == http.MethodPost {
				up := randomUpload(prep, "w1", rand.New(rand.NewSource(1)))
				path += "/sessions"
				payload, _ = json.Marshal(up)
			}
			rec := doJSON(t, srv, method, path, payload, nil)
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("fenced write = %d, want 503: %s", rec.Code, rec.Body.String())
			}
			if rec.Header().Get(FencedHeader) != "1" {
				t.Error("fenced rejection must carry the fenced marker")
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Error("fenced rejection must carry Retry-After")
			}
			if got := g.Breaker().State(); got != guard.StateClosed {
				t.Errorf("breaker after a fenced write = %v, want closed", got)
			}
			// Reads stay available: stale but honest.
			rec = doJSON(t, srv, http.MethodGet, "/api/tests/srv-test", nil, nil)
			if rec.Code != http.StatusOK {
				t.Errorf("fenced read = %d, want 200", rec.Code)
			}
		})
	}
}

func TestReadyzReplicationStates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		repl       *fakeRepl
		maxLag     uint64
		wantCode   int
		wantStatus string
	}{
		{"steady", &fakeRepl{epoch: 1, state: "steady"}, 10, http.StatusOK, "ready"},
		{"lag-within-bound", &fakeRepl{epoch: 1, state: "steady", lagFrames: 10}, 10, http.StatusOK, "ready"},
		{"lagging", &fakeRepl{epoch: 1, state: "catchup", lagFrames: 11}, 10, http.StatusServiceUnavailable, "replication-lagging"},
		{"lag-unbounded", &fakeRepl{epoch: 1, state: "catchup", lagFrames: 9999}, 0, http.StatusOK, "ready"},
		{"fenced", &fakeRepl{epoch: 1, state: "fenced", fenced: true}, 10, http.StatusServiceUnavailable, "fenced"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := prepTest(t, WithReplication(tc.repl, tc.maxLag))
			var body map[string]string
			rec := doJSON(t, srv, http.MethodGet, "/readyz", nil, nil)
			if rec.Code != tc.wantCode {
				t.Fatalf("readyz = %d, want %d (%s)", rec.Code, tc.wantCode, rec.Body.String())
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if body["status"] != tc.wantStatus {
				t.Errorf("status = %q, want %q", body["status"], tc.wantStatus)
			}
			if body["replication"] != tc.repl.state {
				t.Errorf("replication = %q, want %q", body["replication"], tc.repl.state)
			}
			if tc.wantCode != http.StatusOK && rec.Header().Get("Retry-After") == "" {
				t.Error("not-ready answer must carry Retry-After")
			}
		})
	}
}

// TestDuplicateAckRunsBarrier: a 409 acknowledges a record stored by an
// earlier attempt whose replication may be unconfirmed; it may only be
// sent after a successful replication barrier, and a failing barrier must
// turn into a retriable 503, never a phantom ack.
func TestDuplicateAckRunsBarrier(t *testing.T) {
	repl := &fakeRepl{epoch: 1, state: "steady"}
	srv, prep := prepTest(t, WithReplication(repl, 0))
	up := randomUpload(prep, "w1", rand.New(rand.NewSource(2)))
	payload, _ := json.Marshal(up)
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
		t.Fatalf("first upload = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate = %d, want 409", rec.Code)
	}
	if repl.barriers == 0 {
		t.Fatal("409 was sent without a replication barrier")
	}

	repl.barrierErr = errors.New("follower unreachable")
	rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("duplicate with failing barrier = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("barrier-failure answer must carry Retry-After")
	}
}

// TestBatchDuplicateAckRunsBarrier: the batch path owes duplicates the
// same barrier discipline as the single path.
func TestBatchDuplicateAckRunsBarrier(t *testing.T) {
	repl := &fakeRepl{epoch: 1, state: "steady"}
	srv, prep := prepTest(t, WithReplication(repl, 0))
	rng := rand.New(rand.NewSource(3))
	payload, _ := json.Marshal([]SessionUpload{
		randomUpload(prep, "w1", rng),
		randomUpload(prep, "w2", rng),
	})
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions:batch", payload, nil); rec.Code != http.StatusOK {
		t.Fatalf("first batch = %d: %s", rec.Code, rec.Body.String())
	}
	before := repl.barriers
	repl.barrierErr = errors.New("follower unreachable")
	rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions:batch", payload, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-duplicate batch with failing barrier = %d, want 503", rec.Code)
	}
	if repl.barriers == before {
		t.Error("batch 409s were prepared without a replication barrier")
	}
}
