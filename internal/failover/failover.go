// Package failover owns one decision for every tier that talks to a
// replicated node set: given this attempt's outcome, do we stop, or
// rotate, wait how long, and try which node next. The extension client
// (worker -> deployment) and the shard router (router -> primary|standby)
// both run their requests through Loop.Do; neither carries retry, backoff,
// Retry-After, rotation or epoch-fencing rules of its own.
//
// The rules, stated once:
//
//   - Retryable: transport errors, 5xx, 429, and any response from a node
//     that is fenced or answers from an epoch older than one this ring has
//     already seen (a deposed primary — its reads are stale and its write
//     acks would not survive the promoted timeline). Everything else is
//     the caller's classifier's call: Done, or Definitive (the deployment
//     answered; asking again cannot change it).
//   - Every retryable outcome rotates the ring's sticky preference past the
//     node that failed — once, however many concurrent requests saw it fail.
//   - The wait before a retry is the server's Retry-After when it gave one,
//     capped at Policy.MaxRetryAfter; otherwise Policy.Backoff doubling per
//     attempt up to backoffCapFactor × Backoff, with ±50% jitter. Waits end
//     early when the context does.
//   - When the budget runs out the caller gets the last real answer (if any
//     node answered) alongside a *RingExhaustedError listing every tried
//     node's last state.
package failover

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/server"
)

// Policy is the retry budget and pacing of one tier. Zero fields mean
// "the tier's default" (see Or), so a tier cannot be configured with no
// retries at all: Retries: 0 selects the default budget.
type Policy struct {
	// Retries is the number of extra attempts after a retryable failure.
	Retries int
	// Backoff is the base delay before the first retry.
	Backoff time.Duration
	// MaxRetryAfter caps how long a server-supplied Retry-After may hold a
	// request (a misconfigured or hostile node must not park a caller for
	// an hour).
	MaxRetryAfter time.Duration
}

// The two tiers' defaults: a participant's extension is patient with the
// server's clock but gives up after a few tries; the router sits inside a
// request someone is waiting on, so it retries fast, often and briefly.
var (
	ClientPolicy = Policy{Retries: 2, Backoff: 50 * time.Millisecond, MaxRetryAfter: 30 * time.Second}
	RouterPolicy = Policy{Retries: 8, Backoff: 25 * time.Millisecond, MaxRetryAfter: 2 * time.Second}
)

// backoffCapFactor bounds exponential growth at this multiple of Backoff
// (2 s on the client's 50 ms base, 1 s on the router's 25 ms).
const backoffCapFactor = 40

// Or returns p with every unset (non-positive) field taken from def.
func (p Policy) Or(def Policy) Policy {
	if p.Retries <= 0 {
		p.Retries = def.Retries
	}
	if p.Backoff <= 0 {
		p.Backoff = def.Backoff
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = def.MaxRetryAfter
	}
	return p
}

// Delay is the wait before retry number attempt (1-based). A server delay
// wins over the caller's own backoff — the server knows when its overload
// will clear — but only up to MaxRetryAfter.
func (p Policy) Delay(attempt int, serverDelay time.Duration) time.Duration {
	if serverDelay > 0 {
		return min(serverDelay, p.MaxRetryAfter)
	}
	d := backoffCapFactor * p.Backoff
	// 2^6 > backoffCapFactor: from the seventh retry on the cap always
	// wins, so the shift is only taken where it cannot overflow.
	if n := max(attempt-1, 0); n < 6 {
		d = min(d, p.Backoff<<n)
	}
	// ±50% jitter decorrelates a crowd of callers retrying at once.
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// Wait sleeps for d or until ctx ends, whichever is first; shutdown must
// not sit out someone else's backoff.
func Wait(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ParseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds ("3") or HTTP-date ("Wed, 05 Aug 2026 09:00:00 GMT",
// interpreted relative to now).
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		return max(t.Sub(now), 0), true
	}
	return 0, false
}

// Retryable reports whether a status is worth another attempt: server-side
// trouble (5xx) or an overload shed (429). 4xx otherwise is definitive.
func Retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// Ring is one caller's view of a replicated node set: the node list
// (primary first), which node requests currently prefer, and the highest
// replication epoch any response has carried. All methods are safe for
// concurrent use.
type Ring struct {
	nodes     []string
	preferred atomic.Int64
	maxEpoch  atomic.Uint64
	failovers atomic.Int64
}

// NewRing builds a ring over nodes (at least one), preferring the first.
func NewRing(nodes ...string) *Ring {
	return &Ring{nodes: nodes}
}

// Len is the number of nodes; Node names the i-th.
func (r *Ring) Len() int          { return len(r.nodes) }
func (r *Ring) Node(i int) string { return r.nodes[i] }

// Current pins the preferred node for one attempt: its position in the
// ring, and the token Rotate needs to advance past it.
func (r *Ring) Current() (node int, idx int64) {
	idx = r.preferred.Load()
	return int(idx % int64(len(r.nodes))), idx
}

// Rotate moves the preference past the node pinned as idx, unless another
// goroutine already did — concurrent failures of one node must not skip
// past a healthy one. It reports whether this call moved it.
func (r *Ring) Rotate(idx int64) bool {
	if len(r.nodes) > 1 && r.preferred.CompareAndSwap(idx, idx+1) {
		r.failovers.Add(1)
		return true
	}
	return false
}

// Failovers counts preference flips; Epoch is the highest epoch observed
// (0 before the first epoch-bearing response).
func (r *Ring) Failovers() int64 { return r.failovers.Load() }
func (r *Ring) Epoch() uint64    { return r.maxEpoch.Load() }

// Observe folds a response's replication headers into the ring's view and
// reports whether the answering node must be abandoned for this attempt:
// it declared itself fenced, or it answered from an epoch older than one
// the ring has already seen (a deposed primary that does not know it yet).
func (r *Ring) Observe(h http.Header) (stale bool) {
	stale = h.Get(server.FencedHeader) == "1"
	v := h.Get(server.EpochHeader)
	if v == "" {
		return stale
	}
	e, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return stale
	}
	for {
		cur := r.maxEpoch.Load()
		if e < cur {
			return true
		}
		if e == cur || r.maxEpoch.CompareAndSwap(cur, e) {
			return stale
		}
	}
}

// Response is one attempt's answer. A caller that parses answers buffers
// them into Body. A caller that only relays them may leave the body unread
// in Stream instead: Do hands a Done answer back with Stream still open,
// for that caller to copy and close, and reads every other answer into Body
// and closes Stream itself — a retried answer must be discarded, and the
// last one may yet be what the caller gets when the budget runs out. Do
// reads to EOF: an attempt that wants a bound puts it in the reader.
//
// Header is the response's own map, not a copy: net/http builds a fresh one
// for every response, and the attempt drops the http.Response that held it.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
	Stream io.ReadCloser
}

// buffer moves a streamed answer into Body and closes the stream.
func (r *Response) buffer() error {
	if r.Stream == nil {
		return nil
	}
	body, err := io.ReadAll(r.Stream)
	r.Stream.Close()
	r.Stream = nil
	if err != nil {
		return fmt.Errorf("reading response body: %w", err)
	}
	r.Body = body
	return nil
}

// Verdict is a classifier's reading of a non-stale response.
type Verdict int

const (
	// Done: the answer the caller wanted.
	Done Verdict = iota
	// Definitive: the deployment answered and asking again cannot change
	// it. No rotation, no retry; Do returns the response with a
	// *StatusError.
	Definitive
	// Retry: rotate to the next node, wait, try again.
	Retry
)

// ByStatus is the default reading of a status no classifier claimed as
// Done: Retry when Retryable, Definitive otherwise.
func ByStatus(status int) Verdict {
	if Retryable(status) {
		return Retry
	}
	return Definitive
}

// Loop runs logical requests against one ring under one policy.
type Loop struct {
	Ring   *Ring
	Policy Policy
	// OnRetry, when set, is called once per retry with the wait the loop
	// chose for it, before that wait; OnFailover once per preference flip.
	// They are the seams metrics hang on.
	OnRetry    func(wait time.Duration)
	OnFailover func()
}

// Do performs one logical request: attempt is called with the position of
// the ring's preferred node until classify (or staleness, or a transport
// error) stops asking for retries or the budget is spent.
//
// It returns (resp, nil) on Done — the one case in which a streamed answer
// is still open, and the caller's to close — and (resp, *StatusError) on
// Definitive.
// When the budget runs out the error is a *RingExhaustedError and resp is
// the last answer any node gave (nil if none did) — a shed to pass through
// beats a synthetic error. When ctx ends during a wait the error wraps
// ctx.Err() and resp is again the last real answer.
func (l *Loop) Do(ctx context.Context, attempt func(node int) (*Response, error), classify func(*Response) Verdict) (*Response, error) {
	var last *Response
	var lastErr error
	var tried []NodeStatus // allocated on the first failure only
	var serverDelay time.Duration
	for n := 0; n <= l.Policy.Retries; n++ {
		if n > 0 {
			wait := l.Policy.Delay(n, serverDelay)
			if l.OnRetry != nil {
				l.OnRetry(wait)
			}
			if err := Wait(ctx, wait); err != nil {
				return last, fmt.Errorf("retry abandoned: %w", err)
			}
			serverDelay = 0
		}
		node, idx := l.Ring.Current()
		resp, err := attempt(node)
		status := 0
		if err == nil {
			stale := l.Ring.Observe(resp.Header)
			v := Retry
			if !stale {
				v = classify(resp)
			}
			if v == Done {
				return resp, nil
			}
			// A refused answer whose body cannot be read is a transport
			// error like any other: retried, and never the last answer.
			if err = resp.buffer(); err == nil {
				err = &StatusError{Status: resp.Status, Stale: stale, Body: truncate(resp.Body, 200)}
				if v == Definitive {
					return resp, err
				}
				last, status = resp, resp.Status
				serverDelay, _ = ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
			}
		}
		lastErr = err
		if tried == nil {
			tried = make([]NodeStatus, l.Ring.Len())
		}
		tried[node] = NodeStatus{BaseURL: l.Ring.Node(node), Status: status, Err: err}
		if l.Ring.Rotate(idx) && l.OnFailover != nil {
			l.OnFailover()
		}
	}
	return last, exhausted(tried, lastErr)
}

// StatusError is a response the loop refused: returned as is when
// definitive, recorded as the node's last state when retried.
type StatusError struct {
	Status int
	// Stale marks an answer refused for its epoch or fence, not its status.
	Stale bool
	// Body is the start of the response body, for diagnostics.
	Body string
}

func (e *StatusError) Error() string {
	if e.Stale {
		return fmt.Sprintf("status %d (stale epoch): %s", e.Status, e.Body)
	}
	return fmt.Sprintf("status %d: %s", e.Status, e.Body)
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
