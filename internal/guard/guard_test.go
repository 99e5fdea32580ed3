package guard

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaleidoscope/internal/obs"
)

// TestLimiterBoundsConcurrency: every admitted goroutine holds its slot
// until all 64 have been admitted, queued or shed, so the split is exact:
// 4 run, 8 wait (an hour, if need be) and 52 are shed; the 8 then run as
// the slots free.
func TestLimiterBoundsConcurrency(t *testing.T) {
	l := NewLimiter(4, 8, time.Hour)
	var cur, peak, admitted, shed atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, ok, _ := l.Acquire(nil)
			if !ok {
				shed.Add(1)
				return
			}
			admitted.Add(1)
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-gate
			cur.Add(-1)
			release()
		}()
	}
	for admitted.Load()+shed.Load()+l.QueueDepth() < 64 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if p := peak.Load(); p != 4 {
		t.Errorf("peak concurrency %d, want the limit 4", p)
	}
	if admitted.Load() != 12 || shed.Load() != 52 {
		t.Errorf("admitted %d, shed %d; want 4 + 8 queued and 52", admitted.Load(), shed.Load())
	}
	if l.Inflight() != 0 {
		t.Errorf("inflight %d after all released, want 0", l.Inflight())
	}
}

// awaitQueued spins until n requests wait in l's queue.
func awaitQueued(l *Limiter, n int64) {
	for l.QueueDepth() != n {
		runtime.Gosched()
	}
}

// TestLimiterShedsWhenQueueFull: with the one slot held and the one queue
// place taken, the next request is shed without waiting — the queue wait
// is an hour, so one that waited would hang the test.
func TestLimiterShedsWhenQueueFull(t *testing.T) {
	l := NewLimiter(1, 1, time.Hour)
	release, ok, _ := l.Acquire(nil)
	if !ok {
		t.Fatal("first acquire should succeed")
	}
	waiterOut := make(chan bool)
	go func() {
		r, ok, waited := l.Acquire(nil)
		if ok {
			r()
		}
		waiterOut <- ok && waited
	}()
	awaitQueued(l, 1)
	if _, ok, waited := l.Acquire(nil); ok || waited {
		t.Errorf("acquire with full queue: ok=%v waited=%v, want immediate shed", ok, waited)
	}
	release()
	if got := <-waiterOut; !got {
		t.Error("queued waiter should be admitted (with waited=true) after release")
	}
}

// TestLimiterQueueWaitExpires: with no done channel and the slot never
// released, only the queue wait's timer can end the wait — so a shed that
// reports it waited is the timer's.
func TestLimiterQueueWaitExpires(t *testing.T) {
	l := NewLimiter(1, 1, 10*time.Millisecond)
	release, ok, _ := l.Acquire(nil)
	if !ok {
		t.Fatal("first acquire should succeed")
	}
	defer release()
	if _, ok, waited := l.Acquire(nil); ok || !waited {
		t.Errorf("acquire past wait budget: ok=%v waited=%v, want shed after waiting", ok, waited)
	}
}

// TestLimiterDoneCancelsWait: closing done ends an hour-long queue wait.
func TestLimiterDoneCancelsWait(t *testing.T) {
	l := NewLimiter(1, 1, time.Hour)
	release, _, _ := l.Acquire(nil)
	defer release()
	done := make(chan struct{})
	go func() {
		awaitQueued(l, 1)
		close(done)
	}()
	if _, ok, waited := l.Acquire(done); ok || !waited {
		t.Errorf("acquire when done closes: ok=%v waited=%v, want shed after waiting", ok, waited)
	}
}

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRateLimiterRefillAndRetryHint(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	rl := NewRateLimiter(1, 2, clk.now)

	for i := 0; i < 2; i++ {
		if wait, ok := rl.Allow("w1"); !ok {
			t.Fatalf("burst request %d denied (wait %s)", i, wait)
		}
	}
	wait, ok := rl.Allow("w1")
	if ok {
		t.Fatal("third immediate request should be denied")
	}
	if wait < 900*time.Millisecond || wait > 1100*time.Millisecond {
		t.Errorf("retry hint = %s, want ~1s (1 token at 1/s)", wait)
	}
	// Another worker is unaffected.
	if _, ok := rl.Allow("w2"); !ok {
		t.Error("independent worker should not be rate limited")
	}
	clk.advance(time.Second)
	if wait, ok := rl.Allow("w1"); !ok {
		t.Errorf("after 1s refill the request should pass (wait %s)", wait)
	}
	if _, ok := rl.Allow("w1"); ok {
		t.Error("bucket should be empty again immediately after the refill spend")
	}
}

func TestRateLimiterPrunesIdleBuckets(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	rl := NewRateLimiter(10, 10, clk.now)
	for i := 0; i < 100; i++ {
		rl.Allow(string(rune('a' + i%26)))
	}
	clk.advance(time.Hour) // everything refills to burst
	rl.pruneLocked(clk.now())
	if n := rl.Keys(); n != 0 {
		t.Errorf("after prune with all buckets idle, %d keys remain", n)
	}
}

func TestGuardAdmitAndMetrics(t *testing.T) {
	g := New(Config{
		MaxInflight: 1,
		Inflight:    map[Class]int{ClassRead: 1},
		Queue:       map[Class]int{ClassRead: 0},
		QueueWait:   5 * time.Millisecond,
		Rate:        1000,
	})
	release, ok := g.Admit(nil, ClassRead)
	if !ok {
		t.Fatal("first admit should succeed")
	}
	if _, ok := g.Admit(nil, ClassRead); ok {
		t.Fatal("second admit with zero queue should shed")
	}
	release()
	if g.Shed(ClassRead) != 1 {
		t.Errorf("shed count = %d, want 1", g.Shed(ClassRead))
	}
	if _, ok := g.AllowWorker("w"); !ok {
		t.Error("generous rate should admit")
	}

	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		`kscope_guard_shed_total{class="read"} 1`,
		`kscope_guard_inflight{class="upload"} 0`,
		"kscope_guard_breaker_state 0",
		"kscope_guard_breaker_trips_total 0",
		"kscope_guard_ratelimited_total 0",
		"kscope_guard_degraded_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestGuardDisabledRateAdmitsAll(t *testing.T) {
	g := New(Config{MaxInflight: 4})
	for i := 0; i < 100; i++ {
		if _, ok := g.AllowWorker("hot"); !ok {
			t.Fatal("disabled rate limiter must admit everything")
		}
	}
}

func TestGuardDerivedClassLimits(t *testing.T) {
	g := New(Config{MaxInflight: 8})
	if got := g.limiters[ClassRead].Cap(); got != 32 {
		t.Errorf("read limit = %d, want 4x base", got)
	}
	if got := g.limiters[ClassUpload].Cap(); got != 8 {
		t.Errorf("upload limit = %d, want base", got)
	}
	if got := g.limiters[ClassResults].Cap(); got != 2 {
		t.Errorf("results limit = %d, want base/4", got)
	}
}
