package shard

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/server"
)

// routerOver fronts one scripted upstream with a router behind
// obs.Middleware, as kscope-server -shards assembles it. quiet returns once
// the router has returned from every request it has begun.
func routerOver(t *testing.T, upstream http.Handler, timeout time.Duration) (url string, reg *obs.Registry, quiet func()) {
	t.Helper()
	up := httptest.NewServer(upstream)
	t.Cleanup(up.Close)
	reg = obs.NewRegistry()
	rt, err := New(Config{
		Shards:   []Spec{{Name: "s0", Primary: up.URL}},
		Policy:   failover.Policy{Retries: 2, Backoff: time.Millisecond},
		Timeout:  timeout,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, quiet := quiesce(obs.Middleware(rt, nil, reg, server.RouteLabel))
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	return ts.URL, reg, quiet
}

const streamedPage = "/api/tests/x/pages/pair-0-1/left.html"

// TestRouterStreamsAcceptedAnswer: a pass-through answer reaches the client
// with its length and validators, without the shard's replication headers,
// and the router's byte counter counts what was streamed.
func TestRouterStreamsAcceptedAnswer(t *testing.T) {
	page := bytes.Repeat([]byte("integrated page "), 8000) // four copy buffers' worth
	url, reg, quiet := routerOver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.EpochHeader, "3")
		w.Header().Set(server.FencedHeader, "0")
		w.Header().Set("ETag", `"abc"`)
		w.Header().Set("Cache-Control", "no-cache")
		if r.Header.Get("If-None-Match") == `"abc"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(page)))
		if r.Method != http.MethodHead {
			w.Write(page)
		}
	}), 5*time.Second)

	resp, body := fetch(t, url+streamedPage)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, page) {
		t.Fatalf("GET = %d, %d bytes; want 200 and the page's %d", resp.StatusCode, len(body), len(page))
	}
	if resp.ContentLength != int64(len(page)) {
		t.Errorf("Content-Length = %d, want the upstream's %d (not a chunked relay)", resp.ContentLength, len(page))
	}
	if resp.Header.Get("ETag") != `"abc"` || resp.Header.Get("Cache-Control") != "no-cache" {
		t.Errorf("validators lost in the relay: %v", resp.Header)
	}
	if resp.Header.Get(server.EpochHeader) != "" || resp.Header.Get(server.FencedHeader) != "" {
		t.Errorf("replication headers leaked through a streamed answer: %v", resp.Header)
	}

	req, _ := http.NewRequest(http.MethodGet, url+streamedPage, nil)
	req.Header.Set("If-None-Match", `"abc"`)
	cond, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	condBody, _ := io.ReadAll(cond.Body)
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified || len(condBody) != 0 || cond.Header.Get("ETag") != `"abc"` {
		t.Errorf("conditional GET = %d with %d bytes, ETag %q; want the shard's 304 intact",
			cond.StatusCode, len(condBody), cond.Header.Get("ETag"))
	}

	head, err := http.Head(url + streamedPage)
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK || head.ContentLength != int64(len(page)) {
		t.Errorf("HEAD = %d, Content-Length %d; want 200 and %d", head.StatusCode, head.ContentLength, len(page))
	}

	const route = "GET /api/tests/{id}/pages"
	quiet()
	if got := reg.Counter(obs.MetricResponseBytes, "route", route).Value(); got != int64(len(page)) {
		t.Errorf("%s = %d over one 200, one 304 and one HEAD; want exactly the one body's %d",
			obs.MetricResponseBytes, got, len(page))
	}
	if got := reg.Counter(obs.MetricRequests, "route", route, "status", "304").Value(); got != 1 {
		t.Errorf("%s{status=304} = %d, want 1", obs.MetricRequests, got)
	}
}

// TestRouterRetriesBeforeStreaming: headers go out only once an answer is
// accepted. A 503 (with a body of its own) followed by a 200 is retried and
// the client sees the 200 alone, once.
func TestRouterRetriesBeforeStreaming(t *testing.T) {
	var calls atomic.Int32
	url, reg, _ := routerOver(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("X-Attempt", "shed")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write(bytes.Repeat([]byte("busy "), 1000))
			return
		}
		w.Write([]byte("the page"))
	}), 5*time.Second)
	resp, body := fetch(t, url+streamedPage)
	if resp.StatusCode != http.StatusOK || string(body) != "the page" {
		t.Fatalf("got %d %q, want the second attempt's answer", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Attempt") != "" {
		t.Error("the refused attempt's headers reached the client")
	}
	if calls.Load() != 2 || reg.Counter("kscope_shard_proxy_retries_total").Value() != 1 {
		t.Errorf("%d upstream calls, %d retries; want 2 and 1", calls.Load(), reg.Counter("kscope_shard_proxy_retries_total").Value())
	}
}

// TestRouterRelaysLastShedWhenBudgetRunsOut: refused answers are buffered,
// not dropped, so the last one still passes through whole.
func TestRouterRelaysLastShedWhenBudgetRunsOut(t *testing.T) {
	url, _, _ := routerOver(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"slow down"}`))
	}), 5*time.Second)
	resp, body := fetch(t, url+streamedPage)
	if resp.StatusCode != http.StatusTooManyRequests || string(body) != `{"error":"slow down"}` {
		t.Fatalf("got %d %q, want the shard's own shed", resp.StatusCode, body)
	}
}

// TestRouterRelaysAnyLength: the relay's buffer is one size and a body is
// any: empty, within one read, exactly one, just past it, several.
func TestRouterRelaysAnyLength(t *testing.T) {
	url, _, _ := routerOver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(relayedBody(n))
	}), 5*time.Second)
	for _, n := range []int{0, 1, relayBufSize, relayBufSize + 1, 300000} {
		resp, body := fetch(t, url+streamedPage+"?n="+strconv.Itoa(n))
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(n) || !bytes.Equal(body, relayedBody(n)) {
			t.Errorf("a %d-byte body arrived as %d, Content-Length %d, %d bytes, not the ones sent",
				n, resp.StatusCode, resp.ContentLength, len(body))
		}
	}
}

// relayedBody is n bytes that do not repeat with any power of two.
func relayedBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// cleanPage is the path on which truncating serves a whole, different page,
// cleanBody: what a router must still relay intact after it has cut a relay
// short.
const cleanPage = "/api/tests/x/pages/pair-0-1/right.html"

var cleanBody = relayedBody(150000)

// fetchCleanPage fetches cleanPage through the router that has just aborted
// a relay: the buffer it was using is back in the pool, and nothing of the
// cut page comes with it.
func fetchCleanPage(t *testing.T, url string) {
	t.Helper()
	resp, body := fetch(t, url+cleanPage)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, cleanBody) {
		t.Errorf("the fetch after the cut relay = %d, %d bytes; want 200 and the %d-byte page intact",
			resp.StatusCode, len(body), len(cleanBody))
	}
}

// truncating declares a full page and hangs up (stall false) or goes silent
// (stall true) half way through it. On cleanPage it serves a whole one.
func truncating(page []byte, stall bool, release <-chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cleanPage {
			w.Write(cleanBody)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(page)))
		w.Write(page[:len(page)/2])
		w.(http.Flusher).Flush()
		if stall {
			<-release
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	})
}

// TestRouterAbortsWhenUpstreamDiesMidBody: the status line is already out
// when the shard's connection drops, so the router breaks the client's
// connection. The client must see a transport error, never a short 200 —
// and the router's own metrics must still have seen the request.
func TestRouterAbortsWhenUpstreamDiesMidBody(t *testing.T) {
	page := bytes.Repeat([]byte("p"), 200000)
	url, reg, quiet := routerOver(t, truncating(page, false, nil), 5*time.Second)
	resp, err := http.Get(url + streamedPage)
	if err == nil { // else the abort beat the status line: also a transport error
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("read a %d-byte body of a %d-byte page to a clean EOF (status %d)", len(got), len(page), resp.StatusCode)
		}
	}

	// The aborted relay is one request with the status that went out and
	// the bytes that did.
	const route = "GET /api/tests/{id}/pages"
	quiet()
	if got := reg.Counter(obs.MetricRequests, "route", route, "status", "200").Value(); got != 1 {
		t.Errorf("%s{status=200} = %d after one aborted relay, want 1", obs.MetricRequests, got)
	}
	if got := reg.Counter(obs.MetricResponseBytes, "route", route).Value(); got <= 0 || got >= int64(len(page)) {
		t.Errorf("%s = %d after a relay cut half way through %d bytes", obs.MetricResponseBytes, got, len(page))
	}
	fetchCleanPage(t, url)
}

// TestRouterTimeoutCoversTheCopy: rt.timeout bounds the whole attempt, the
// body included, not just the wait for headers. Only the deferred close
// releases the stalled upstream, so the test ends only if the 100ms attempt
// timeout cuts the copy.
func TestRouterTimeoutCoversTheCopy(t *testing.T) {
	page := bytes.Repeat([]byte("p"), 200000)
	release := make(chan struct{})
	defer close(release) // before the upstream's Close, which waits for the handler
	url, _, _ := routerOver(t, truncating(page, true, release), 100*time.Millisecond)
	resp, err := http.Get(url + streamedPage)
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("a stalled upstream body read to a clean EOF")
	}
	fetchCleanPage(t, url)
}

// TestReadBounded: a declared length sizes the buffer once, an undeclared
// one is read to EOF, a body longer or shorter than declared is still read
// for what it is, and nothing past the limit is accepted.
func TestReadBounded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		body    string
		n       int64
		limit   int64
		wantErr bool
	}{
		{"declared", "hello", 5, 10, false},
		{"declared empty", "", 0, 10, false},
		{"declared at the limit", "0123456789", 10, 10, false},
		{"declared past the limit", "0123456789x", 11, 10, true},
		{"shorter than declared", "hel", 5, 10, false},
		{"longer than declared", "hello, world", 5, 20, false},
		{"longer than declared and the limit", "hello, world", 5, 10, true},
		{"undeclared", "hello", -1, 10, false},
		{"undeclared past the limit", "0123456789x", -1, 10, true},
	} {
		// One byte at a time: the worst a network reader does.
		got, err := readBounded(iotest.OneByteReader(strings.NewReader(tc.body)), tc.n, tc.limit)
		if (err != nil) != tc.wantErr || (err == nil && string(got) != tc.body) {
			t.Errorf("%s: got %q, %v", tc.name, got, err)
		}
		if err == nil && tc.n == int64(len(tc.body)) && int64(cap(got)) != tc.n+1 {
			t.Errorf("%s: buffer of %d for a declared %d: it grew", tc.name, cap(got), tc.n)
		}
	}
}

// BenchmarkRouterRelayPage relays a page-sized answer (113 KB, the paper's
// integrated page as prepared) from a stub shard to a client draining it into
// io.Discard, every hop a real loopback connection. B/op covers the client,
// the router and the stub; scripts/bench_delta.sh holds it under the 32 KB
// a per-response copy buffer would cost.
func BenchmarkRouterRelayPage(b *testing.B) {
	page := relayedBody(113 << 10)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(page)))
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(page)
	}))
	defer up.Close()
	rt, err := New(Config{Shards: []Spec{{Name: "s0", Primary: up.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(obs.Middleware(rt, nil, obs.NewRegistry(), server.RouteLabel))
	defer front.Close()
	relayOnce := func() {
		resp, err := http.Get(front.URL + streamedPage)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n != int64(len(page)) {
			b.Fatalf("GET = %d, %d of %d bytes, %v", resp.StatusCode, n, len(page), err)
		}
	}
	relayOnce()
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relayOnce()
	}
}
