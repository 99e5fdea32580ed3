package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/server"
)

// PartialHeader marks a scatter/gather response that is missing one or
// more shards' contributions because a shard and its standby were both
// unreachable. Partial results are the degraded read the router serves
// instead of failing the whole query for one lost ring segment.
const PartialHeader = "X-Kscope-Partial"

// Spec names one shard: the primary node's base URL and, optionally, its
// warm standby's. Name is the shard's ring identity — it must stay stable
// across router restarts or keys remap; it defaults to the primary URL.
type Spec struct {
	Name    string
	Primary string
	Standby string
}

func (s Spec) nodes() []string {
	if s.Standby == "" {
		return []string{s.Primary}
	}
	return []string{s.Primary, s.Standby}
}

// Config wires a Router.
type Config struct {
	// Shards is the static membership list (at least one entry).
	Shards []Spec
	// Policy is the retry budget per proxied request; attempts rotate
	// primary -> standby -> primary... Zero fields keep
	// failover.RouterPolicy's values.
	Policy failover.Policy
	// Timeout bounds each proxied attempt (default 10s).
	Timeout time.Duration
	// Transport, when set, supplies the per-link RoundTripper for a
	// (shard, node) pair — the chaos-injection seam. Nil links use
	// http.DefaultTransport.
	Transport func(shardName, nodeURL string) http.RoundTripper
	// Registry, when set, receives the router's own counters.
	Registry *obs.Registry
}

const (
	defaultTimeout = 10 * time.Second
	// maxProxyBody bounds any single request or response body. Request
	// bodies are buffered because a retried attempt must replay the bytes,
	// response bodies wherever the router parses them or may yet discard
	// them; the server's own budget for a session (1MiB) sits far below this
	// backstop. A batch, which the router takes apart into requests that
	// each fit, is held to the server's own budgets instead (split.go).
	maxProxyBody = 64 << 20
	// relayBufSize is as large as one of the paper's integrated pages
	// (113 KB as prepared), so a relay is few read/write pairs; measured,
	// pooled, against 32 KiB: BenchmarkRouterRelayPage 143 vs 129 us.
	relayBufSize = 128 << 10
)

// relayPool holds writeUpstream's copy buffers between relays.
var relayPool = sync.Pool{New: func() any { return new([relayBufSize]byte) }}

// segment is the router's per-shard view: the failover loop over the
// shard's nodes (primary first — sticky preference, observed epochs, retry
// policy) plus one HTTP client per node, indexed like the ring.
type segment struct {
	name  string
	loop  failover.Loop
	httpc []*http.Client
}

// Router is the deployment's thin HTTP tier: mostly stateless (the only
// state is per-shard node preference and observed epochs), it owns no
// data and can be restarted or replicated freely.
type Router struct {
	timeout time.Duration
	ring    *Ring
	shards  []*segment

	reg       *obs.Registry
	partials  *obs.Counter
	exhausted *obs.Counter
}

// New builds the router over a static shard list.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	rt := &Router{timeout: cfg.Timeout, reg: cfg.Registry}
	loop := failover.Loop{Policy: cfg.Policy.Or(failover.RouterPolicy)}
	if rt.reg != nil {
		retries := rt.reg.Counter("kscope_shard_proxy_retries_total")
		loop.OnRetry = func(time.Duration) { retries.Inc() }
		loop.OnFailover = rt.reg.Counter("kscope_shard_failovers_total").Inc
		rt.partials = rt.reg.Counter("kscope_shard_partial_results_total")
		rt.exhausted = rt.reg.Counter("kscope_shard_exhausted_total")
		shards := len(cfg.Shards)
		rt.reg.RegisterGauge("kscope_shard_count", func() float64 { return float64(shards) })
	}
	names := make([]string, len(cfg.Shards))
	for i, spec := range cfg.Shards {
		if spec.Primary == "" {
			return nil, fmt.Errorf("shard: shard %d has no primary URL", i)
		}
		if spec.Name == "" {
			spec.Name = spec.Primary
		}
		names[i] = spec.Name
		seg := &segment{name: spec.Name, loop: loop}
		var bases []string
		for _, base := range spec.nodes() {
			var link http.RoundTripper
			if cfg.Transport != nil {
				link = cfg.Transport(spec.Name, base)
			}
			bases = append(bases, strings.TrimRight(base, "/"))
			seg.httpc = append(seg.httpc, &http.Client{Transport: link})
		}
		seg.loop.Ring = failover.NewRing(bases...)
		rt.shards = append(rt.shards, seg)
	}
	var err error
	if rt.ring, err = NewRing(names, DefaultVirtualNodes); err != nil {
		return nil, err
	}
	return rt, nil
}

// Ring exposes the routing ring (tests and operators asking "who owns
// this key").
func (rt *Router) Ring() *Ring { return rt.ring }

// relay is the router's classifier: any answer the shared policy
// would not retry is the shard's answer, relayed as is — the router never
// second-guesses a shard's 4xx.
func relay(up *failover.Response) failover.Verdict {
	if failover.Retryable(up.Status) {
		return failover.Retry
	}
	return failover.Done
}

// doShard performs one logical request against a shard through its
// failover loop and buffers the answer, for the callers that parse it. It
// returns the last response seen when the budget runs out — a shed to pass
// through beats a synthetic error — and an error (matching
// failover.ErrRingExhausted) only when no node ever answered.
func (rt *Router) doShard(ctx context.Context, seg *segment, method, path string, hdr http.Header, body []byte) (*failover.Response, error) {
	return rt.loopShard(ctx, seg, method, path, hdr, body, false)
}

// loopShard is doShard with the choice of leaving an accepted answer's body
// unread in Response.Stream (writeUpstream relays and closes it). Answers
// the loop refuses come back buffered either way.
func (rt *Router) loopShard(ctx context.Context, seg *segment, method, path string, hdr http.Header, body []byte, stream bool) (*failover.Response, error) {
	up, err := seg.loop.Do(ctx, func(node int) (*failover.Response, error) {
		return rt.try(ctx, seg.httpc[node], seg.loop.Ring.Node(node), method, path, hdr, body, stream)
	}, relay)
	if up != nil {
		return up, nil
	}
	if rt.exhausted != nil {
		rt.exhausted.Inc()
	}
	return nil, fmt.Errorf("shard %s: %w", seg.name, err)
}

// attemptBody is the unread body of a streamed attempt. rt.timeout bounds
// the attempt to the last byte, not just to the headers, so the timeout's
// cancel waits for Close.
type attemptBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b attemptBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

func (rt *Router) try(ctx context.Context, httpc *http.Client, base, method, path string, hdr http.Header, body []byte, stream bool) (up *failover.Response, err error) {
	actx, cancel := context.WithTimeout(ctx, rt.timeout)
	defer func() {
		if up == nil || up.Stream == nil { // else attemptBody.Close cancels
			cancel()
		}
	}()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, base+path, rd)
	if err != nil {
		return nil, err
	}
	copyProxyHeader(req.Header, hdr)
	if body != nil {
		req.ContentLength = int64(len(body))
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	up = &failover.Response{Status: resp.StatusCode, Header: resp.Header}
	if stream {
		// Past the backstop the read fails, whoever is reading: the loop
		// buffering an answer it refused, or the relay (which aborts).
		up.Stream = attemptBody{http.MaxBytesReader(nil, resp.Body, maxProxyBody), cancel}
		return up, nil
	}
	defer resp.Body.Close()
	if up.Body, err = readBounded(resp.Body, resp.ContentLength, maxProxyBody); err != nil {
		return nil, fmt.Errorf("shard: response from %s: %w", base, err)
	}
	return up, nil
}

// errTooLarge is a body past its byte limit, as opposed to one that could
// not be read.
var errTooLarge = errors.New("body too large")

// readBounded buffers a body of at most limit bytes. It is io.ReadAll with
// the buffer sized once from the declared length n (-1: not declared), plus
// the byte of room in which the reader reports EOF; a body that outruns its
// declaration still grows, up to the limit.
func readBounded(body io.Reader, n, limit int64) ([]byte, error) {
	return appendBounded(nil, body, n, limit)
}

// appendBounded is readBounded into the spare capacity of b[:0], growing it
// only when n or the body asks for more.
func appendBounded(b []byte, body io.Reader, n, limit int64) ([]byte, error) {
	if n > limit {
		return nil, fmt.Errorf("%w: exceeds %d bytes", errTooLarge, limit)
	}
	if n < 0 {
		n = 511 // io.ReadAll's start
	}
	if b = b[:0]; int64(cap(b)) <= n {
		b = make([]byte, 0, n+1)
	}
	r := io.LimitReader(body, limit+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("%w: exceeds %d bytes", errTooLarge, limit)
	}
	return b, nil
}

// hopByHop lists the connection-scoped headers a proxy must not forward
// (RFC 9110 §7.6.1).
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

func copyProxyHeader(dst, src http.Header) {
	for k, vv := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] || k == "Content-Length" {
			continue
		}
		dst[k] = vv
	}
}

// writeUpstream relays a downstream response verbatim, with two
// normalizations. Every 429/503 the router answers carries Retry-After —
// downstream chaos can strip it, but the shed contract at the deployment
// face must hold. And the shard's replication headers stop here: epochs
// are per shard and the router has already fenced this segment, so a
// caller with one ring for the whole deployment would otherwise refuse a
// healthy shard's ack because some other shard has been promoted further.
//
// A streamed answer is copied through with its declared length and closed.
// Should the upstream die mid-body the status line has already gone out,
// so the client connection is aborted: the client sees a transport error,
// never a short 200.
func (rt *Router) writeUpstream(w http.ResponseWriter, up *failover.Response) {
	h := w.Header()
	copyProxyHeader(h, up.Header)
	h.Del(server.EpochHeader)
	h.Del(server.FencedHeader)
	if (up.Status == http.StatusTooManyRequests || up.Status == http.StatusServiceUnavailable) &&
		h.Get("Retry-After") == "" {
		h.Set("Retry-After", "1")
	}
	if up.Stream == nil {
		w.WriteHeader(up.Status)
		w.Write(up.Body)
		return
	}
	defer up.Stream.Close()
	if n := up.Header["Content-Length"]; n != nil {
		h["Content-Length"] = n
	}
	w.WriteHeader(up.Status)
	// Through Write alone: w's ReadFrom would bring its own buffer.
	buf := relayPool.Get().(*[relayBufSize]byte)
	_, err := io.CopyBuffer(struct{ io.Writer }{w}, up.Stream, buf[:])
	relayPool.Put(buf)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
}

// writeUnreachable is the router-minted 503 for a ring segment whose
// primary and standby are both gone.
func (rt *Router) writeUnreachable(w http.ResponseWriter, what string, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "%s unavailable: %v", what, err)
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// readBody buffers a request body up to limit bytes (413 is the caller's
// concern; the proxy must replay bodies across retries, so it buffers).
func readBody(r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	return readBounded(r.Body, r.ContentLength, limit)
}

// ServeHTTP routes one request: single-shard paths are proxied to the
// ring owner (with failover), fleet-wide paths (results, session lists,
// test listing, deletes, readiness) scatter/gather.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Path
	switch {
	case p == "/healthz":
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "role": "router", "shards": len(rt.shards),
		})
	case p == "/readyz":
		rt.handleReady(w, r)
	case p == "/metrics" && rt.reg != nil:
		obs.Handler(rt.reg).ServeHTTP(w, r)
	case p == "/api/tests" && r.Method == http.MethodGet:
		rt.handleListTests(w, r)
	case strings.HasPrefix(p, "/api/tests/"):
		rt.handleTest(w, r, strings.TrimPrefix(p, "/api/tests/"))
	case strings.HasPrefix(p, "/dashboard/"):
		rt.proxyKey(w, r, TestKey(strings.TrimPrefix(p, "/dashboard/")))
	default:
		// Stateless surfaces (/builder, /api/params/build): any shard can
		// answer; hash the path so the load spreads deterministically.
		rt.proxyKey(w, r, p)
	}
}

// handleTest dispatches the /api/tests/{id}... subtree.
func (rt *Router) handleTest(w http.ResponseWriter, r *http.Request, rest string) {
	testID, tail := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		testID, tail = rest[:i], rest[i+1:]
	}
	if testID == "" {
		writeError(w, http.StatusNotFound, "missing test id")
		return
	}
	switch {
	case r.Method == http.MethodDelete && tail == "":
		rt.handleDelete(w, r, testID)
	case r.Method == http.MethodGet && tail == "results":
		rt.handleResults(w, r, testID)
	case r.Method == http.MethodGet && tail == "sessions":
		rt.handleSessionList(w, r, testID)
	case r.Method == http.MethodPost && tail == "sessions":
		rt.handleUpload(w, r, testID)
	case r.Method == http.MethodPost && tail == "sessions:batch":
		rt.handleBatch(w, r, testID)
	case tail == "fold":
		// A node's fold state is one partition of the crowd: relayed from the
		// home shard it would read as the fleet's. The deployment face does
		// not have the route.
		writeError(w, http.StatusNotFound, "no such route")
	default:
		// Test info, task payloads, page files: owned by the test's home
		// shard (every shard holds the provisioned content, but pinning
		// reads to the owner keeps its serving cache hot).
		rt.proxyKey(w, r, TestKey(testID))
	}
}

// proxyKey forwards the request to the shard owning key, buffering the
// request body for retry replay and streaming the accepted answer through.
func (rt *Router) proxyKey(w http.ResponseWriter, r *http.Request, key string) {
	body, err := readBody(r, maxProxyBody)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading request: %v", err)
		return
	}
	if len(body) == 0 {
		body = nil
	}
	seg := rt.shards[rt.ring.Owner(key)]
	up, err := rt.loopShard(r.Context(), seg, r.Method, r.URL.RequestURI(), r.Header, body, true)
	if err != nil {
		rt.writeUnreachable(w, r.Method+" "+r.URL.Path, err)
		return
	}
	rt.writeUpstream(w, up)
}

// handleUpload routes a single session upload by its session key. The
// worker id comes from the X-Kscope-Worker header every extension client
// sends, and then the body is never parsed; a headerless upload is routed by
// the id in its body, read the way the batch split reads an element's, so
// the same worker lands on the same shard by either endpoint.
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request, testID string) {
	body, err := readBody(r, maxProxyBody)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading session: %v", err)
		return
	}
	workerID := []byte(r.Header.Get(guard.WorkerIDHeader))
	if len(workerID) == 0 {
		workerID = sessionWorkerID(body)
	}
	seg := rt.shards[rt.ring.sessionOwner(testID, workerID)]
	up, err := rt.doShard(r.Context(), seg, http.MethodPost, r.URL.RequestURI(), r.Header, body)
	if err != nil {
		rt.writeUnreachable(w, "session upload", err)
		return
	}
	rt.writeUpstream(w, up)
}
