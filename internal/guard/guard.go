// Package guard is Kaleidoscope's overload-protection layer. A recruited
// crowd arrives as a thundering herd — a posted job can send hundreds of
// participants to the core server within seconds — and a days-long campaign
// will see disk stalls and full volumes. The guard keeps the serving path
// alive through both, with three cooperating mechanisms:
//
//   - admission control: a per-endpoint-class concurrency limiter with a
//     small bounded wait queue. Cheap reads, session uploads, and results
//     conclusions are limited independently so an expensive class cannot
//     starve a cheap one. When the queue is full the request is shed with
//     429 + Retry-After instead of queueing unboundedly.
//
//   - per-worker rate limiting: a token bucket keyed on the worker id
//     (falling back to the remote address) so one hot or buggy client
//     cannot starve the rest of the crowd.
//
//   - a circuit breaker around store writes: consecutive storage faults
//     (ENOSPC, torn writes) trip it open; while open the server answers
//     writes 503 + Retry-After and marks its reads, served from memory as
//     ever, with an X-Kscope-Degraded header — and half-opens with probe
//     writes until the store recovers.
//
// Everything is observable: RegisterMetrics exports kscope_guard_* series
// (shed and queue counts, breaker state, degraded serves) into an
// obs.Registry.
package guard

import (
	"sync/atomic"
	"time"

	"kaleidoscope/internal/obs"
)

// WorkerIDHeader carries the participant's worker id on every extension
// request; the rate limiter keys its token buckets on it. Requests without
// the header are keyed by remote address.
const WorkerIDHeader = "X-Kscope-Worker"

// Class partitions requests for admission control. Each class has its own
// concurrency limit and wait queue, sized for its cost.
type Class int

const (
	// ClassRead covers cheap reads: test info, task payloads, page files.
	ClassRead Class = iota
	// ClassUpload covers session uploads (a store write per request).
	ClassUpload
	// ClassResults covers results conclusions (potentially a full tally).
	ClassResults

	// NumClasses is the number of endpoint classes.
	NumClasses
)

// String returns the low-cardinality metric label for the class.
func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassUpload:
		return "upload"
	case ClassResults:
		return "results"
	}
	return "other"
}

// RetryAfter is the advisory delay sent with admission sheds and
// breaker-open 503s.
const RetryAfter = time.Second

// Config tunes a Guard. The zero value of every field selects a production
// default; tests shrink the limits and timings.
type Config struct {
	// MaxInflight is the base concurrency limit K. Classes derive from it:
	// reads admit 4K, uploads K, results max(1, K/4). Default 64.
	MaxInflight int
	// Inflight overrides the derived per-class limit when non-zero.
	Inflight map[Class]int
	// Queue overrides the per-class bounded-wait-queue depth (default: the
	// class's inflight limit).
	Queue map[Class]int
	// QueueWait is the longest a queued request waits for a slot before it
	// is shed. Default 200ms.
	QueueWait time.Duration
	// Rate is the per-worker token refill rate in requests/second; 0
	// disables per-worker rate limiting.
	Rate float64
	// Burst is the per-worker bucket capacity (default 2*Rate, min 1).
	Burst float64
	// BreakerThreshold is the consecutive-failure count that trips the
	// breaker open. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before allowing a
	// half-open probe. Default 1s.
	BreakerCooldown time.Duration
	// BreakerProbes is the number of consecutive successful probes that
	// close a half-open breaker. Default 1.
	BreakerProbes int
	// Now is the clock (tests inject a fake one).
	Now func() time.Time
}

func (cfg *Config) applyDefaults() {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 200 * time.Millisecond
	}
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = 2 * cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.BreakerProbes <= 0 {
		cfg.BreakerProbes = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
}

// classLimit derives the admission limit for a class from the base K.
func classLimit(cfg Config, c Class) int {
	if n := cfg.Inflight[c]; n > 0 {
		return n
	}
	switch c {
	case ClassRead:
		return 4 * cfg.MaxInflight
	case ClassResults:
		n := cfg.MaxInflight / 4
		if n < 1 {
			n = 1
		}
		return n
	default:
		return cfg.MaxInflight
	}
}

func classQueue(cfg Config, c Class, limit int) int {
	if n, ok := cfg.Queue[c]; ok {
		return n
	}
	return limit
}

// Guard bundles the three overload mechanisms plus their counters.
type Guard struct {
	cfg      Config
	limiters [NumClasses]*Limiter
	rate     *RateLimiter
	breaker  *Breaker

	shed        [NumClasses]atomic.Int64
	queued      [NumClasses]atomic.Int64
	rateLimited atomic.Int64
	degraded    atomic.Int64
	unavailable atomic.Int64
}

// New builds a Guard from cfg (zero fields get production defaults).
func New(cfg Config) *Guard {
	cfg.applyDefaults()
	g := &Guard{cfg: cfg}
	for c := Class(0); c < NumClasses; c++ {
		limit := classLimit(cfg, c)
		g.limiters[c] = NewLimiter(limit, classQueue(cfg, c, limit), cfg.QueueWait)
	}
	if cfg.Rate > 0 {
		g.rate = NewRateLimiter(cfg.Rate, cfg.Burst, cfg.Now)
	}
	g.breaker = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.BreakerProbes, cfg.Now)
	return g
}

// Breaker returns the store circuit breaker.
func (g *Guard) Breaker() *Breaker { return g.breaker }

// Admit reserves an admission slot for the class, waiting in the bounded
// queue if the class is at capacity. It returns (release, true) when
// admitted — release must be called exactly once — and (nil, false) when
// the request must be shed.
func (g *Guard) Admit(done <-chan struct{}, class Class) (func(), bool) {
	release, admitted, waited := g.limiters[class].Acquire(done)
	if waited {
		g.queued[class].Add(1)
	}
	if !admitted {
		g.shed[class].Add(1)
		return nil, false
	}
	return release, true
}

// AllowWorker runs the per-worker token bucket for key. When the worker is
// over its rate it returns (wait, false), where wait is how long until a
// token is available. A disabled rate limiter admits everything.
func (g *Guard) AllowWorker(key string) (time.Duration, bool) {
	if g.rate == nil {
		return 0, true
	}
	wait, ok := g.rate.Allow(key)
	if !ok {
		g.rateLimited.Add(1)
	}
	return wait, ok
}

// NoteDegraded counts one read answered while the breaker was open.
func (g *Guard) NoteDegraded() { g.degraded.Add(1) }

// NoteUnavailable counts one 503 sent because the breaker was open and the
// request was a write.
func (g *Guard) NoteUnavailable() { g.unavailable.Add(1) }

// Shed reports how many requests of the class were shed so far.
func (g *Guard) Shed(class Class) int64 { return g.shed[class].Load() }

// DegradedServes reports how many reads were answered while the breaker
// was open.
func (g *Guard) DegradedServes() int64 { return g.degraded.Load() }

// RegisterMetrics exports the guard's state as kscope_guard_* gauges.
func (g *Guard) RegisterMetrics(reg *obs.Registry) {
	for c := Class(0); c < NumClasses; c++ {
		c := c
		label := `{class="` + c.String() + `"}`
		lim := g.limiters[c]
		reg.RegisterGauge("kscope_guard_inflight"+label, func() float64 {
			return float64(lim.Inflight())
		})
		reg.RegisterGauge("kscope_guard_queue_depth"+label, func() float64 {
			return float64(lim.QueueDepth())
		})
		reg.RegisterGauge("kscope_guard_shed_total"+label, func() float64 {
			return float64(g.shed[c].Load())
		})
		reg.RegisterGauge("kscope_guard_queued_total"+label, func() float64 {
			return float64(g.queued[c].Load())
		})
	}
	reg.RegisterGauge("kscope_guard_ratelimited_total", func() float64 {
		return float64(g.rateLimited.Load())
	})
	reg.RegisterGauge("kscope_guard_degraded_total", func() float64 {
		return float64(g.degraded.Load())
	})
	reg.RegisterGauge("kscope_guard_unavailable_total", func() float64 {
		return float64(g.unavailable.Load())
	})
	reg.RegisterGauge("kscope_guard_breaker_state", func() float64 {
		return float64(g.breaker.State())
	})
	reg.RegisterGauge("kscope_guard_breaker_trips_total", func() float64 {
		return float64(g.breaker.Trips())
	})
}
