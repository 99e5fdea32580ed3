package failover

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"3", 3 * time.Second, true},
		{" 10 ", 10 * time.Second, true},
		{"0", 0, true},
		{"-1", 0, false},
		{"", 0, false},
		{"soon", 0, false},
		{now.Add(2 * time.Second).Format(http.TimeFormat), 2 * time.Second, true},
		// A date in the past means "retry now", not an error.
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true},
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in, now)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

// httpLoop is a loop over real HTTP servers with test-sized delays; zero
// policy fields take those.
func httpLoop(p Policy, bases ...string) *Loop {
	return &Loop{
		Ring:   NewRing(bases...),
		Policy: p.Or(Policy{Retries: 2, Backoff: time.Millisecond, MaxRetryAfter: time.Millisecond}),
	}
}

// get runs one GET through the loop, accepting only 200.
func get(ctx context.Context, l *Loop, path string) (*Response, error) {
	return l.Do(ctx, func(node int) (*Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.Ring.Node(node)+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		return &Response{Status: resp.StatusCode, Header: resp.Header, Body: body}, nil
	}, func(r *Response) Verdict {
		if r.Status == http.StatusOK {
			return Done
		}
		return ByStatus(r.Status)
	})
}

// shedThenServe returns a handler that sheds the first n requests with
// status + the given Retry-After header value, then serves 200.
func shedThenServe(n int, status int, retryAfter func() string, hits *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := hits.Add(1)
		if int(k) <= n {
			w.Header().Set("Retry-After", retryAfter())
			http.Error(w, "overloaded", status)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	})
}

func TestLoopHonorsRetryAfterSeconds(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(shedThenServe(1, http.StatusTooManyRequests,
		func() string { return "1" }, &hits))
	defer ts.Close()

	// The server's 1s, capped to 80ms, drives the wait: not the loop's own
	// 1ms backoff.
	l := httpLoop(Policy{MaxRetryAfter: 80 * time.Millisecond}, ts.URL)
	var waits []time.Duration
	l.OnRetry = func(wait time.Duration) { waits = append(waits, wait) }
	if _, err := get(context.Background(), l, "/whatever"); err != nil {
		t.Fatalf("get after shed: %v", err)
	}
	if len(waits) != 1 || waits[0] != 80*time.Millisecond {
		t.Errorf("retry waits %v; want one, the capped Retry-After of 80ms", waits)
	}
	if hits.Load() != 2 {
		t.Errorf("server hits = %d, want 2", hits.Load())
	}
}

func TestLoopHonorsRetryAfterHTTPDate(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(shedThenServe(1, http.StatusServiceUnavailable,
		func() string { return time.Now().Add(60 * time.Millisecond).UTC().Format(http.TimeFormat) },
		&hits))
	defer ts.Close()

	l := httpLoop(Policy{}, ts.URL)
	var waits []time.Duration
	l.OnRetry = func(wait time.Duration) { waits = append(waits, wait) }
	if _, err := get(context.Background(), l, "/whatever"); err != nil {
		t.Fatalf("get after 503: %v", err)
	}
	// HTTP-date granularity is whole seconds, so a +60ms deadline rounds
	// down to "now" and the loop falls back to its 1ms backoff, within the
	// ±50% jitter — or, just before a second turns, up to a date the 1ms
	// cap bounds. The point is that the date form parses and the retry
	// succeeds.
	if len(waits) != 1 || waits[0] < 500*time.Microsecond || waits[0] > 1500*time.Microsecond {
		t.Errorf("retry waits %v; want one, within [0.5ms, 1.5ms]", waits)
	}
	if hits.Load() != 2 {
		t.Errorf("server hits = %d, want 2", hits.Load())
	}
}

func TestLoopCapsExcessiveRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(shedThenServe(1, http.StatusTooManyRequests,
		func() string { return "3600" }, &hits)) // an hour, if we believed it
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l := httpLoop(Policy{MaxRetryAfter: 30 * time.Millisecond}, ts.URL)
	var waits []time.Duration
	l.OnRetry = func(wait time.Duration) {
		waits = append(waits, wait)
		if wait > 30*time.Millisecond {
			cancel() // an uncapped wait would sit out the hour
		}
	}
	_, err := get(ctx, l, "/whatever")
	if len(waits) != 1 || waits[0] != 30*time.Millisecond {
		t.Fatalf("retry waits %v; the 30ms cap must bound a hostile Retry-After", waits)
	}
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if hits.Load() != 2 {
		t.Errorf("server hits = %d, want 2", hits.Load())
	}
}
