package guard

import (
	"sync/atomic"
	"time"
)

// Limiter is a concurrency limiter with a small bounded wait queue: up to
// maxInflight acquisitions run at once, up to maxQueue more wait (at most
// maxWait each) for a slot, and everything beyond that is shed immediately.
// The bounded queue absorbs the short arrival bursts a recruited crowd
// produces without letting latency grow unboundedly — a request either runs
// soon or is told to come back later.
type Limiter struct {
	slots chan struct{} // capacity = maxInflight; a held slot = one running request
	queue chan struct{} // capacity = maxQueue; a held token = one waiting request
	wait  time.Duration

	inflight atomic.Int64
	waiting  atomic.Int64
}

// NewLimiter builds a limiter admitting maxInflight concurrent holders with
// a maxQueue-deep wait queue and a per-request queue wait of maxWait.
// maxQueue 0 means shed immediately once the limit is reached.
func NewLimiter(maxInflight, maxQueue int, maxWait time.Duration) *Limiter {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Limiter{
		slots: make(chan struct{}, maxInflight),
		queue: make(chan struct{}, maxQueue),
		wait:  maxWait,
	}
}

// Acquire reserves a slot. It returns (release, true, waited) when a slot
// was obtained — release must be called exactly once — and (nil, false,
// waited) when the request must be shed (queue full, queue wait exceeded,
// or done closed while waiting). waited reports whether the request spent
// time in the queue.
func (l *Limiter) Acquire(done <-chan struct{}) (release func(), ok, waited bool) {
	select {
	case l.slots <- struct{}{}:
		return l.releaseFunc(), true, false
	default:
	}
	// At capacity: join the bounded queue, or shed if it is full too.
	select {
	case l.queue <- struct{}{}:
	default:
		return nil, false, false
	}
	l.waiting.Add(1)
	defer func() {
		<-l.queue
		l.waiting.Add(-1)
	}()
	timer := time.NewTimer(l.wait)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		return l.releaseFunc(), true, true
	case <-timer.C:
		return nil, false, true
	case <-done:
		return nil, false, true
	}
}

func (l *Limiter) releaseFunc() func() {
	l.inflight.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			l.inflight.Add(-1)
			<-l.slots
		}
	}
}

// Inflight reports how many acquisitions are currently held.
func (l *Limiter) Inflight() int64 { return l.inflight.Load() }

// QueueDepth reports how many requests are currently waiting.
func (l *Limiter) QueueDepth() int64 { return l.waiting.Load() }
