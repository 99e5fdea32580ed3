package guard

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is a circuit breaker state. The numeric values are the
// kscope_guard_breaker_state gauge's encoding.
type State int

const (
	// StateClosed: the store is healthy; operations flow normally.
	StateClosed State = 0
	// StateHalfOpen: the cooldown elapsed; single probe operations test
	// whether the store has recovered.
	StateHalfOpen State = 1
	// StateOpen: consecutive store faults tripped the breaker; operations
	// are refused and the server's reads are marked degraded.
	StateOpen State = 2
)

// String returns the state's conventional name.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	}
	return "unknown"
}

// Outcome is what a permitted operation reports back to the breaker.
type Outcome int

const (
	// Success: the store op completed.
	Success Outcome = iota
	// Failure: the store op hit an infrastructure fault (ENOSPC, I/O
	// error, corruption) — the signal that trips the breaker.
	Failure
	// Canceled: the operation never reached the store (validation bailed
	// first, client disconnected); it says nothing about store health.
	Canceled
)

// Breaker is a circuit breaker for store operations: closed → open after
// threshold consecutive failures, open → half-open after a cooldown,
// half-open → closed after `probes` consecutive successful probe
// operations (or back to open on the first probe failure). While open it
// refuses operations so a faulting disk is not hammered and writes answer
// at once instead of queueing on a dead store.
type Breaker struct {
	mu          sync.Mutex
	state       State
	threshold   int
	cooldown    time.Duration
	probes      int
	now         func() time.Time
	consecFails int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	probeOKs    int

	trips atomic.Int64

	// OnStateChange, when set before first use, observes every state
	// transition. It is called with the breaker's lock held — transitions
	// arrive in exact order — so it must be fast and must not call back
	// into the breaker.
	OnStateChange func(from, to State)
}

// NewBreaker builds a breaker tripping after threshold consecutive
// failures, staying open for cooldown, and closing after probes successful
// half-open probes. now is the clock (nil = time.Now).
func NewBreaker(threshold int, cooldown time.Duration, probes int, now func() time.Time) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if probes < 1 {
		probes = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, probes: probes, now: now}
}

func (b *Breaker) setStateLocked(to State) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if cb := b.OnStateChange; cb != nil {
		cb(from, to)
	}
}

// Allow reports whether a protected store operation may proceed. When it
// returns ok, the caller must invoke done exactly once with the operation's
// outcome. When it returns !ok the breaker is open (or a probe is already
// in flight) and the caller should refuse the operation.
func (b *Breaker) Allow() (done func(Outcome), ok bool) {
	b.mu.Lock()
	switch b.state {
	case StateClosed:
		b.mu.Unlock()
		return b.reportClosed, true
	case StateOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.mu.Unlock()
			return nil, false
		}
		// Cooldown elapsed: half-open with this operation as the probe.
		b.setStateLocked(StateHalfOpen)
		b.probeOKs = 0
		b.probing = true
		b.mu.Unlock()
		return b.reportProbe, true
	default: // StateHalfOpen
		if b.probing {
			b.mu.Unlock()
			return nil, false
		}
		b.probing = true
		b.mu.Unlock()
		return b.reportProbe, true
	}
}

// reportClosed folds a closed-state operation outcome into the
// consecutive-failure count.
func (b *Breaker) reportClosed(o Outcome) {
	b.mu.Lock()
	if b.state != StateClosed {
		// A concurrent operation already tripped the breaker; this
		// straggler's outcome no longer matters.
		b.mu.Unlock()
		return
	}
	switch o {
	case Failure:
		b.consecFails++
		if b.consecFails >= b.threshold {
			b.tripLocked()
		}
	case Success:
		b.consecFails = 0
	}
	b.mu.Unlock()
}

// reportProbe folds a half-open probe outcome.
func (b *Breaker) reportProbe(o Outcome) {
	b.mu.Lock()
	b.probing = false
	if b.state != StateHalfOpen {
		b.mu.Unlock()
		return
	}
	switch o {
	case Failure:
		b.tripLocked()
	case Success:
		b.probeOKs++
		if b.probeOKs >= b.probes {
			b.setStateLocked(StateClosed)
			b.consecFails = 0
		}
	}
	b.mu.Unlock()
}

// tripLocked moves to open and stamps the cooldown clock. Called with the
// lock held.
func (b *Breaker) tripLocked() {
	b.openedAt = b.now()
	b.setStateLocked(StateOpen)
	b.consecFails = 0
	b.probing = false
	b.trips.Add(1)
}

// State returns the current breaker state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has tripped open.
func (b *Breaker) Trips() int64 { return b.trips.Load() }
