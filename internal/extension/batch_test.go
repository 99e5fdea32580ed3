package extension

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/server"
)

func population(t *testing.T, n int, seed int64) *crowd.Population {
	t.Helper()
	pop, err := crowd.TrustedCrowd(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// UploadBatch round-trip: build sessions through the flow, ship one
// compressed batch, and verify the server stored all of them.
func TestUploadBatch(t *testing.T) {
	ts, srv, _ := startServer(t)
	pop := population(t, 4, 11)

	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []server.SessionUpload
	for i, w := range pop.Workers {
		runner := &Runner{
			Client: client,
			Worker: w,
			Answer: AnswerFontSize(),
			RNG:    rand.New(rand.NewSource(int64(i))),
		}
		built, err := runner.Build("ext-test")
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, *built)
	}
	report, err := client.UploadBatch("ext-test", sessions, true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 4 || report.Rejected != 0 {
		t.Fatalf("report = %+v", report)
	}
	res, err := srv.ConcludeScratch("ext-test", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 {
		t.Errorf("stored workers = %d, want 4", res.Workers)
	}

	// A full re-send is idempotent: every element answers 409, which the
	// batch client surfaces in the report without an error.
	report, err = client.UploadBatch("ext-test", sessions, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, elem := range report.Results {
		if elem.Status != http.StatusConflict {
			t.Errorf("re-sent element %d status = %d, want 409", i, elem.Status)
		}
	}
}

// The batch path retries 5xx/429 sheds like singles do, honoring
// Retry-After; the retry lands the whole batch.
func TestUploadBatchRetriesShed(t *testing.T) {
	ts, _, _ := startServer(t)
	// A proxy that sheds the first batch POST with 503 + Retry-After and
	// forwards everything else to the real server.
	var mu sync.Mutex
	shed := true
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		doShed := shed && r.URL.Path == "/api/tests/ext-test/sessions:batch"
		if doShed {
			shed = false
		}
		mu.Unlock()
		if doShed {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
			return
		}
		tsURL := ts.URL
		pr, err := http.NewRequest(r.Method, tsURL+r.URL.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		pr.Header = r.Header
		resp, err := http.DefaultTransport.RoundTrip(pr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}))
	defer wrapped.Close()

	client, err := NewClient(wrapped.URL, nil,
		WithPolicy(failover.Policy{Retries: 2, Backoff: time.Millisecond, MaxRetryAfter: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	pop := population(t, 2, 3)
	var sessions []server.SessionUpload
	for i, w := range pop.Workers {
		runner := &Runner{Client: client, Worker: w, Answer: AnswerFontSize(),
			RNG: rand.New(rand.NewSource(int64(i)))}
		built, err := runner.Build("ext-test")
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, *built)
	}
	report, err := client.UploadBatch("ext-test", sessions, true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 2 {
		t.Fatalf("report = %+v", report)
	}
	if client.RetryAttempts() == 0 {
		t.Error("shed batch should have recorded a retry")
	}
}
