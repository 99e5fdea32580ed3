package extension

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/server"
)

// TestClientRotatesOnTransportError: a dead primary must rotate the client
// onto its failover base, and the request must succeed there.
func TestClientRotatesOnTransportError(t *testing.T) {
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"test_id":"t","questions":["q"]}`)
	}))
	defer standby.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // a primary that is already gone

	c, err := NewClient(dead.URL, &http.Client{Timeout: time.Second},
		WithPolicy(failover.Policy{Retries: 3, Backoff: time.Millisecond}), WithFailover(standby.URL))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.TestInfo("t")
	if err != nil {
		t.Fatalf("TestInfo through failover: %v", err)
	}
	if info.TestID != "t" {
		t.Errorf("info = %+v", info)
	}
	if c.Failovers() == 0 {
		t.Error("rotation not recorded")
	}
	if c.BaseURL() != standby.URL {
		t.Errorf("client still points at %s, want %s", c.BaseURL(), standby.URL)
	}
}

// TestClientRotatesOnFencedResponse: a deposed primary answers writes 503
// with X-Kscope-Fenced; the client must treat that as "fail over", not
// "retry here", and land the upload on the standby.
func TestClientRotatesOnFencedResponse(t *testing.T) {
	var fencedHits, standbyHits atomic.Int64
	fenced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fencedHits.Add(1)
		w.Header().Set(server.EpochHeader, "1")
		w.Header().Set(server.FencedHeader, "1")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "fenced", http.StatusServiceUnavailable)
	}))
	defer fenced.Close()
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		standbyHits.Add(1)
		w.Header().Set(server.EpochHeader, "2")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"status":"stored"}`)
	}))
	defer standby.Close()

	c, err := NewClient(fenced.URL, &http.Client{Timeout: time.Second},
		WithPolicy(failover.Policy{Retries: 3, Backoff: time.Millisecond, MaxRetryAfter: time.Millisecond}),
		WithFailover(standby.URL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadSession("t", server.SessionUpload{TestID: "t", WorkerID: "w"}); err != nil {
		t.Fatalf("upload through fenced failover: %v", err)
	}
	if standbyHits.Load() != 1 {
		t.Errorf("standby hits = %d, want 1", standbyHits.Load())
	}
	if c.Epoch() != 2 {
		t.Errorf("observed epoch = %d, want 2", c.Epoch())
	}
}

// TestClientRotatesAwayFromStaleEpoch: once the client has seen epoch 2,
// a healthy-looking answer from an epoch-1 node (a zombie primary that
// does not know it was deposed) must be retried elsewhere rather than
// trusted — a stale read on GET, and on every write an ack that would not
// survive the promoted timeline.
func TestClientRotatesAwayFromStaleEpoch(t *testing.T) {
	cases := []struct {
		name string
		// status and body are what both nodes answer this request with.
		status int
		body   string
		call   func(c *Client) error
	}{
		{"GET", http.StatusOK, `{"test_id":"t","questions":["q"]}`, func(c *Client) error {
			_, err := c.TestInfo("t")
			return err
		}},
		{"single upload", http.StatusCreated, `{"status":"stored"}`, func(c *Client) error {
			out, err := c.UploadSession("t", server.SessionUpload{TestID: "t", WorkerID: "w"})
			if err == nil && out != UploadStored {
				err = fmt.Errorf("outcome = %v, want UploadStored", out)
			}
			return err
		}},
		{"batch upload", http.StatusOK, `{"test_id":"t","accepted":1,"results":[{"index":0,"status":201}]}`, func(c *Client) error {
			_, err := c.UploadBatch("t", []server.SessionUpload{{TestID: "t", WorkerID: "w"}}, false)
			return err
		}},
		{"DELETE", http.StatusOK, `{"status":"deleted"}`, func(c *Client) error {
			return c.DeleteTest("t")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var staleHits, freshHits atomic.Int64
			node := func(epoch string, hits *atomic.Int64) *httptest.Server {
				return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					hits.Add(1)
					w.Header().Set(server.EpochHeader, epoch)
					w.WriteHeader(tc.status)
					fmt.Fprint(w, tc.body)
				}))
			}
			stale := node("1", &staleHits)
			defer stale.Close()
			fresh := node("2", &freshHits)
			defer fresh.Close()

			c, err := NewClient(stale.URL, &http.Client{Timeout: time.Second},
				WithPolicy(failover.Policy{Retries: 3, Backoff: time.Millisecond}), WithFailover(fresh.URL))
			if err != nil {
				t.Fatal(err)
			}
			// First call lands on the epoch-1 node and is accepted — nothing
			// newer has been seen yet.
			if err := tc.call(c); err != nil {
				t.Fatal(err)
			}
			// Learn epoch 2 from the fresh node, then come back around.
			c.loop.Ring.Rotate(0)
			if err := tc.call(c); err != nil {
				t.Fatal(err)
			}
			c.loop.Ring.Rotate(1)
			if c.BaseURL() != stale.URL || c.Epoch() != 2 {
				t.Fatalf("setup: on %s at epoch %d, want the stale node at epoch 2", c.BaseURL(), c.Epoch())
			}
			// Back on the stale node: its answer must now be refused and the
			// request settled on the fresh one.
			if err := tc.call(c); err != nil {
				t.Fatal(err)
			}
			if staleHits.Load() != 2 || freshHits.Load() != 2 {
				t.Errorf("hits stale=%d fresh=%d, want 2 and 2: the stale-epoch answer was trusted",
					staleHits.Load(), freshHits.Load())
			}
			if c.BaseURL() != fresh.URL {
				t.Errorf("client still prefers %s after a stale answer", c.BaseURL())
			}
		})
	}
}

// TestClientRetries429Uploads: the server sheds the first upload with 429 +
// Retry-After, accepts the second; the worker header must arrive on every
// attempt.
func TestClientRetries429Uploads(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(WorkerIDHeader) != "retry-worker" {
			t.Errorf("attempt %d missing worker header", hits.Load()+1)
		}
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusCreated)
	}))
	defer ts.Close()

	client, err := NewClient(ts.URL, nil,
		WithPolicy(failover.Policy{Backoff: time.Millisecond, MaxRetryAfter: 10 * time.Millisecond}),
		WithWorkerID("retry-worker"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadSession("any", server.SessionUpload{}); err != nil {
		t.Fatalf("upload through shedding server: %v", err)
	}
	if hits.Load() != 2 {
		t.Errorf("server hits = %d, want 2", hits.Load())
	}
	if client.RetryAttempts() != 1 {
		t.Errorf("retries = %d, want 1", client.RetryAttempts())
	}
}

func TestWorkerIDHeaderSent(t *testing.T) {
	got := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.Header.Get(WorkerIDHeader)
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL, nil, WithWorkerID("w-42"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.get("/x"); err != nil {
		t.Fatal(err)
	}
	if id := <-got; id != "w-42" {
		t.Errorf("worker header = %q, want w-42", id)
	}
}
