package guard

import (
	"sync"
	"time"
)

// maxRateKeys bounds the bucket map; beyond it, idle (full) buckets are
// pruned. A worker whose bucket was pruned simply starts a fresh full
// bucket — pruning can only ever be generous.
const maxRateKeys = 65536

// RateLimiter is a per-key token bucket: each key accrues rate tokens per
// second up to burst, and each admitted request spends one. One hot client
// — a stuck retry loop, a scripted scraper — drains only its own bucket;
// the rest of the crowd is unaffected.
type RateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	now     func() time.Time
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter refilling rate tokens/second into buckets
// of the given burst capacity. now is the clock (nil = time.Now).
func NewRateLimiter(rate, burst float64, now func() time.Time) *RateLimiter {
	if now == nil {
		now = time.Now
	}
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{rate: rate, burst: burst, now: now, buckets: make(map[string]*bucket)}
}

// Allow spends one token from key's bucket. When the bucket is empty it
// returns (wait, false), where wait is the time until one token has
// accrued — the Retry-After a shed response should carry.
func (rl *RateLimiter) Allow(key string) (time.Duration, bool) {
	now := rl.now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, ok := rl.buckets[key]
	if !ok {
		if len(rl.buckets) >= maxRateKeys {
			rl.pruneLocked(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * rl.rate
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / rl.rate * float64(time.Second)), false
}

// pruneLocked drops buckets that have refilled to capacity — keys idle long
// enough that forgetting them loses nothing.
func (rl *RateLimiter) pruneLocked(now time.Time) {
	for k, b := range rl.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*rl.rate >= rl.burst {
			delete(rl.buckets, k)
		}
	}
}
