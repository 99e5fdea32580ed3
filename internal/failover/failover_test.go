package failover

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaleidoscope/internal/server"
)

// The properties every tier's retry behaviour rests on, checked once, over
// seeded random policies, rings and response scripts.

const propertyRounds = 2000

func randomPolicy(rng *rand.Rand) Policy {
	return Policy{
		Retries:       rng.Intn(12),
		Backoff:       time.Duration(1 + rng.Int63n(int64(time.Minute))),
		MaxRetryAfter: time.Duration(1 + rng.Int63n(int64(time.Hour))),
	}
}

// TestDelayBounds: the backoff lies in [0.5, 1.5] x min(Backoff*2^(n-1),
// 40*Backoff) for every attempt number — including ones far past where a
// plain shift would overflow — and a server delay replaces it exactly,
// capped at MaxRetryAfter.
func TestDelayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < propertyRounds; i++ {
		p := randomPolicy(rng)
		attempt := 1 + rng.Intn(8)
		if i%4 == 0 {
			attempt = 1 + rng.Intn(math.MaxInt32) // large -retries: must saturate, not wrap
		}
		want := math.Min(float64(p.Backoff)*math.Pow(2, float64(attempt-1)), 40*float64(p.Backoff))
		got := float64(p.Delay(attempt, 0))
		if got < 0.5*want-1 || got > 1.5*want+1 {
			t.Fatalf("%+v.Delay(%d, 0) = %v, want within [0.5, 1.5] x %v",
				p, attempt, time.Duration(got), time.Duration(want))
		}
		serverDelay := time.Duration(1 + rng.Int63n(int64(2*time.Hour)))
		if got, want := p.Delay(attempt, serverDelay), min(serverDelay, p.MaxRetryAfter); got != want {
			t.Fatalf("%+v.Delay(%d, %v) = %v, want %v", p, attempt, serverDelay, got, want)
		}
	}
}

// TestPolicyOr: unset fields take the default, set fields survive.
func TestPolicyOr(t *testing.T) {
	if got := (Policy{}).Or(RouterPolicy); got != RouterPolicy {
		t.Errorf("zero.Or(RouterPolicy) = %+v", got)
	}
	set := Policy{Retries: 5, Backoff: time.Millisecond, MaxRetryAfter: time.Second}
	if got := set.Or(ClientPolicy); got != set {
		t.Errorf("set.Or(ClientPolicy) = %+v, want %+v", got, set)
	}
	if got := (Policy{Backoff: time.Millisecond}).Or(ClientPolicy); got.Retries != ClientPolicy.Retries ||
		got.Backoff != time.Millisecond || got.MaxRetryAfter != ClientPolicy.MaxRetryAfter {
		t.Errorf("partial.Or(ClientPolicy) = %+v", got)
	}
}

// TestWaitNeverOutlivesContext: whatever the delay, Wait returns by the
// time the context ends, and a loop cut short mid-wait reports an error
// that is still context.Canceled, alongside the last real answer. A wait
// that ignored its context would sit out the hour, and go test -timeout
// fails that.
func TestWaitNeverOutlivesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Wait(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a canceled context = %v", err)
	}
	if err := Wait(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Wait with a live context = %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	l := &Loop{
		Ring:   NewRing("a", "b"),
		Policy: Policy{Retries: 5, Backoff: time.Hour, MaxRetryAfter: time.Hour},
	}
	shed := &Response{Status: http.StatusServiceUnavailable, Header: http.Header{"Retry-After": {"3600"}}}
	last, err := l.Do(ctx, func(int) (*Response, error) {
		cancel() // the caller gives up while the loop is about to wait an hour
		return shed, nil
	}, func(r *Response) Verdict { return ByStatus(r.Status) })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("loop error = %v, want one matching context.Canceled", err)
	}
	if errors.Is(err, ErrRingExhausted) {
		t.Errorf("an abandoned wait is not ring exhaustion: %v", err)
	}
	if last != shed {
		t.Errorf("last = %+v, want the shed that preceded the wait", last)
	}
}

// TestDefinitiveNeverRotatesOrRetries: for any non-retryable status the
// classifier does not claim, the loop makes exactly one attempt, leaves
// the preference where it was, and returns the response with a
// *StatusError.
func TestDefinitiveNeverRotatesOrRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < propertyRounds; i++ {
		status := 400 + rng.Intn(100)
		if Retryable(status) {
			continue
		}
		var attempts, retries int
		l := &Loop{
			Ring:    NewRing("a", "b", "c"),
			Policy:  Policy{Retries: 1 + rng.Intn(8), Backoff: time.Hour, MaxRetryAfter: time.Hour},
			OnRetry: func(time.Duration) { retries++ },
		}
		resp, err := l.Do(context.Background(), func(int) (*Response, error) {
			attempts++
			return &Response{Status: status, Header: http.Header{}, Body: []byte("no")}, nil
		}, func(r *Response) Verdict { return ByStatus(r.Status) })
		var se *StatusError
		if !errors.As(err, &se) || se.Status != status || resp == nil || resp.Status != status {
			t.Fatalf("status %d: got (%+v, %v), want the response with a *StatusError", status, resp, err)
		}
		if attempts != 1 || retries != 0 || l.Ring.Failovers() != 0 {
			t.Fatalf("status %d: %d attempts, %d retries, %d failovers; a definitive answer must end the request",
				status, attempts, retries, l.Ring.Failovers())
		}
	}
}

// TestEpochObserver: over random epoch sequences the observed maximum
// never decreases, an epoch below it is always stale, one at or above it
// never is (unless fenced), and a fenced answer always is.
func TestEpochObserver(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRing("a", "b")
	var maxSeen uint64
	for i := 0; i < propertyRounds; i++ {
		e := uint64(rng.Intn(50))
		fenced := rng.Intn(10) == 0
		h := http.Header{}
		h.Set(server.EpochHeader, strconv.FormatUint(e, 10))
		if fenced {
			h.Set(server.FencedHeader, "1")
		}
		stale := r.Observe(h)
		if want := e < maxSeen || fenced; stale != want {
			t.Fatalf("epoch %d (max seen %d, fenced %t): stale = %t", e, maxSeen, fenced, stale)
		}
		maxSeen = max(maxSeen, e)
		if r.Epoch() != maxSeen {
			t.Fatalf("after epoch %d: Epoch() = %d, want %d", e, r.Epoch(), maxSeen)
		}
	}
	// Headerless and malformed answers neither move the maximum nor count
	// as stale.
	for _, h := range []http.Header{{}, {server.EpochHeader: {"soon"}}} {
		if r.Observe(h) || r.Epoch() != maxSeen {
			t.Errorf("Observe(%v) moved the view: epoch %d", h, r.Epoch())
		}
	}
}

// TestEpochObserverConcurrent: racing observers agree on the maximum.
func TestEpochObserverConcurrent(t *testing.T) {
	r := NewRing("a", "b")
	var wg sync.WaitGroup
	for g := 1; g <= 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for e := 0; e <= g*10; e++ {
				r.Observe(http.Header{server.EpochHeader: {strconv.Itoa(e)}})
			}
		}(g)
	}
	wg.Wait()
	if r.Epoch() != 160 {
		t.Errorf("Epoch() = %d, want 160", r.Epoch())
	}
}

// TestRotateOncePerFailedIndex: N goroutines that all saw the same node
// fail move the preference exactly one step — racing failures must not
// skip past a healthy node.
func TestRotateOncePerFailedIndex(t *testing.T) {
	for round := 0; round < 200; round++ {
		r := NewRing("a", "b", "c")
		_, idx := r.Current()
		var moved atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if r.Rotate(idx) {
					moved.Add(1)
				}
			}()
		}
		wg.Wait()
		node, _ := r.Current()
		if moved.Load() != 1 || r.Failovers() != 1 || node != 1 {
			t.Fatalf("%d rotations reported, %d counted, now on node %d; want exactly one step",
				moved.Load(), r.Failovers(), node)
		}
	}
	// A single-node ring has nowhere to go.
	if r := NewRing("only"); r.Rotate(0) || r.Failovers() != 0 {
		t.Error("a one-node ring rotated")
	}
}

// TestExhaustionListsTriedNodesInRingOrder: with random rings, budgets and
// failure scripts, the exhaustion error names exactly the nodes tried, in
// ring order, each with the last status it gave (0 for a transport error),
// the loop hands back the last real answer, and every failure rotated.
func TestExhaustionListsTriedNodesInRingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	names := []string{"n0", "n1", "n2", "n3"}
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(len(names))
		l := &Loop{
			Ring:   NewRing(names[:n]...),
			Policy: Policy{Retries: rng.Intn(7), Backoff: time.Microsecond, MaxRetryAfter: time.Microsecond},
		}
		var failovers int
		l.OnFailover = func() { failovers++ }
		lastStatus := map[int]int{}
		var lastAnswer *Response
		var attempts int
		got, err := l.Do(context.Background(), func(node int) (*Response, error) {
			if want := attempts % n; node != want {
				t.Fatalf("attempt %d went to node %d, want %d: every failure rotates one step", attempts, node, want)
			}
			attempts++
			if rng.Intn(3) == 0 {
				lastStatus[node] = 0
				return nil, errors.New("connection refused")
			}
			status := []int{500, 502, 503, 429}[rng.Intn(4)]
			lastStatus[node] = status
			lastAnswer = &Response{Status: status, Header: http.Header{}}
			return lastAnswer, nil
		}, func(r *Response) Verdict { return ByStatus(r.Status) })

		if attempts != l.Policy.Retries+1 {
			t.Fatalf("%d attempts on a budget of %d retries", attempts, l.Policy.Retries)
		}
		var ring *RingExhaustedError
		if !errors.As(err, &ring) || !errors.Is(err, ErrRingExhausted) {
			t.Fatalf("err = %v, want a *RingExhaustedError", err)
		}
		if got != lastAnswer {
			t.Fatalf("last answer = %+v, want %+v", got, lastAnswer)
		}
		if len(ring.Nodes) != len(lastStatus) {
			t.Fatalf("Nodes = %+v, want the %d tried", ring.Nodes, len(lastStatus))
		}
		prev := -1
		for _, ns := range ring.Nodes {
			pos := int(ns.BaseURL[1] - '0')
			if pos <= prev {
				t.Fatalf("Nodes out of ring order: %+v", ring.Nodes)
			}
			prev = pos
			if want, tried := lastStatus[pos]; !tried || ns.Status != want || ns.Err == nil {
				t.Fatalf("node %s: %+v, want last status %d", ns.BaseURL, ns, want)
			}
		}
		wantFailovers := attempts
		if n == 1 {
			wantFailovers = 0
		}
		if failovers != wantFailovers || int(l.Ring.Failovers()) != wantFailovers {
			t.Fatalf("%d failovers over %d failed attempts on %d nodes", failovers, attempts, n)
		}
	}
}

// TestStaleAnswerIsRetriedWhateverTheClassifierSays: an answer from a
// deposed node never reaches the classifier.
func TestStaleAnswerIsRetriedWhateverTheClassifierSays(t *testing.T) {
	l := &Loop{Ring: NewRing("zombie", "promoted"), Policy: Policy{Retries: 2, Backoff: time.Microsecond}}
	l.Ring.Observe(http.Header{server.EpochHeader: {"2"}})
	epochs := []string{"1", "2"}
	resp, err := l.Do(context.Background(), func(node int) (*Response, error) {
		return &Response{Status: http.StatusCreated, Header: http.Header{server.EpochHeader: {epochs[node]}}}, nil
	}, func(r *Response) Verdict {
		if r.Header.Get(server.EpochHeader) == "1" {
			t.Error("classifier consulted on a stale answer")
		}
		return Done
	})
	if err != nil || resp.Header.Get(server.EpochHeader) != "2" {
		t.Errorf("got (%+v, %v), want the promoted node's answer", resp, err)
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate([]byte("short"), 10); got != "short" {
		t.Errorf("truncate short = %q", got)
	}
	if got := truncate([]byte("0123456789abc"), 10); got != "0123456789..." {
		t.Errorf("truncate long = %q", got)
	}
}

// scriptedBody is a streamed answer's body that counts its closes and can
// fail mid-read.
type scriptedBody struct {
	content string
	failAt  int // fail once this many bytes are read; < 0 never
	read    int
	closes  int
}

func (b *scriptedBody) Read(p []byte) (int, error) {
	if b.failAt >= 0 && b.read >= b.failAt {
		return 0, errors.New("connection reset mid-body")
	}
	if b.read == len(b.content) {
		return 0, io.EOF
	}
	end := len(b.content)
	if b.failAt >= 0 {
		end = min(end, b.failAt)
	}
	n := copy(p, b.content[b.read:end])
	b.read += n
	return n, nil
}

func (b *scriptedBody) Close() error {
	b.closes++
	return nil
}

// TestStreamedBodiesAreClosedExactlyOnce: over random scripts of streamed
// answers — accepted, retryable, definitive, stale, cut off mid-body — the
// loop closes the body of every answer it does not hand back as Done exactly
// once, hands a Done answer back open and unread, buffers the answer it
// returns otherwise, and counts an unreadable refused answer as a transport
// error (never the last answer).
func TestStreamedBodiesAreClosedExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < propertyRounds; i++ {
		l := &Loop{
			Ring:   NewRing("n0", "n1"),
			Policy: Policy{Retries: rng.Intn(6), Backoff: time.Microsecond, MaxRetryAfter: time.Microsecond},
		}
		l.Ring.Observe(http.Header{server.EpochHeader: {"5"}})
		var bodies []*scriptedBody
		var lastWhole *scriptedBody // the last refused answer whose body could be read
		got, err := l.Do(context.Background(), func(int) (*Response, error) {
			if rng.Intn(6) == 0 {
				return nil, errors.New("connection refused")
			}
			body := &scriptedBody{content: strconv.Itoa(len(bodies)) + " says no", failAt: -1}
			if rng.Intn(4) == 0 {
				body.failAt = rng.Intn(len(body.content))
			}
			bodies = append(bodies, body)
			resp := &Response{Status: []int{200, 404, 429, 503}[rng.Intn(4)], Header: http.Header{}, Stream: body}
			if rng.Intn(5) == 0 {
				resp.Header.Set(server.EpochHeader, "4") // deposed
			}
			return resp, nil
		}, func(r *Response) Verdict {
			if r.Status == 200 {
				return Done
			}
			return ByStatus(r.Status)
		})

		done := err == nil
		for j, body := range bodies {
			handedBack := done && j == len(bodies)-1
			if handedBack {
				if body.closes != 0 || body.read != 0 || got.Stream != body {
					t.Fatalf("round %d: the Done answer came back with %d closes, %d bytes read", i, body.closes, body.read)
				}
				continue
			}
			if body.closes != 1 {
				t.Fatalf("round %d: refused answer %d of %d was closed %d times", i, j, len(bodies), body.closes)
			}
			if body.failAt < 0 {
				lastWhole = body
			}
		}
		if done {
			continue
		}
		var se *StatusError
		if errors.As(err, &se) && !se.Stale && !Retryable(se.Status) {
			// Definitive: the loop stopped on the answer it returns.
			lastWhole = bodies[len(bodies)-1]
			if lastWhole.failAt >= 0 {
				t.Fatalf("round %d: a definitive answer with an unreadable body ended the request", i)
			}
		}
		switch {
		case lastWhole == nil && got != nil:
			t.Fatalf("round %d: got %+v, but no refused answer had a readable body", i, got)
		case lastWhole != nil && (got == nil || got.Stream != nil || string(got.Body) != lastWhole.content):
			t.Fatalf("round %d: got %+v, want the buffered answer %q", i, got, lastWhole.content)
		}
	}
}
