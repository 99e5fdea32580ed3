package extension

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"testing"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/server"
)

func TestNewClientDefaultHasTimeout(t *testing.T) {
	c, err := NewClient("http://127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.httpc == http.DefaultClient {
		t.Fatal("default client must not be http.DefaultClient")
	}
	if c.httpc.Timeout <= 0 {
		t.Error("default client needs an overall timeout")
	}
}

func TestUploadSessionRetriesTransient(t *testing.T) {
	ts, _, _ := startServer(t)
	// Fail the first two upload attempts with a transient 5xx, then proxy
	// to the real server.
	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var posts int
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts++
			if posts <= 2 {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	client, err := NewClient(flaky.URL, nil, WithPolicy(failover.Policy{Retries: 4, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	upload := server.SessionUpload{TestID: "ext-test", WorkerID: "retry-worker"}
	if _, err := client.UploadSession("ext-test", upload); err != nil {
		t.Fatalf("upload should survive transient 5xx: %v", err)
	}
	if posts != 3 {
		t.Errorf("posts = %d, want 3 (two failures, one success)", posts)
	}
	if got := client.RetryAttempts(); got != 2 {
		t.Errorf("retry attempts = %d, want 2", got)
	}
}

func TestUploadSessionDuplicateIsSuccess(t *testing.T) {
	ts, srv, _ := startServer(t)
	client, err := NewClient(ts.URL, nil, WithPolicy(failover.Policy{Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	upload := server.SessionUpload{TestID: "ext-test", WorkerID: "dup-worker"}
	if out, err := client.UploadSession("ext-test", upload); err != nil || out != UploadStored {
		t.Fatalf("first upload: %v, %v", out, err)
	}
	// The retransmit of a session whose 201 was lost on the wire: the
	// server answers 409, the client treats it as success.
	if out, err := client.UploadSession("ext-test", upload); err != nil || out != UploadDuplicate {
		t.Fatalf("duplicate upload should be success: %v, %v", out, err)
	}
	stored, err := srv.Sessions("ext-test")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 {
		t.Errorf("stored sessions = %d, want 1", len(stored))
	}
}

func TestUploadSessionDefinitiveRejection(t *testing.T) {
	var posts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts++
		w.WriteHeader(http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, nil, WithPolicy(failover.Policy{Retries: 5, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadSession("x", server.SessionUpload{WorkerID: "w"}); err == nil {
		t.Fatal("400 should fail")
	}
	if posts != 1 {
		t.Errorf("definitive 4xx retried: %d posts", posts)
	}
}

// TestChaosFullSessionFlow is the end-to-end resilience acceptance: a
// participant completes the whole Fig. 3 flow against a live server while
// the network drops or faults well over 20% of requests, and the session
// still lands exactly once.
func TestChaosFullSessionFlow(t *testing.T) {
	ts, srv, prep := startServer(t)
	rng := rand.New(rand.NewSource(21))
	chaos, err := netsim.NewChaosTransport(http.DefaultTransport, netsim.ChaosConfig{
		DropRate:   0.12,
		FaultRate:  0.12, // combined ~24% transient faults per request
		Delay:      &netsim.Profile4G,
		DelayScale: 0.01,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	httpc := &http.Client{Transport: chaos, Timeout: 10 * time.Second}
	client, err := NewClient(ts.URL, httpc, WithPolicy(failover.Policy{Retries: 10, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	workerRNG := rand.New(rand.NewSource(7))
	runner := &Runner{
		Client: client,
		Worker: diligentWorker(workerRNG),
		Answer: AnswerFontSize(),
		RNG:    workerRNG,
	}
	session, _, err := runner.Run("ext-test")
	if err != nil {
		t.Fatalf("flow under chaos failed: %v", err)
	}
	if len(session.Responses) != len(prep.RealPages()) {
		t.Errorf("responses = %d, want %d", len(session.Responses), len(prep.RealPages()))
	}
	stored, err := srv.Sessions("ext-test")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || stored[0].WorkerID != session.WorkerID {
		t.Errorf("stored sessions = %+v", stored)
	}
	s := chaos.Stats()
	if s.Drops+s.Faults == 0 {
		t.Error("chaos never fired; test is vacuous")
	}
	t.Logf("chaos: %+v, client retries: %d", s, client.RetryAttempts())
	if client.RetryAttempts() == 0 {
		t.Error("flow completed without a single retry under 24% faults — suspicious")
	}
}
