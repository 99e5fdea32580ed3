package failover

import (
	"errors"
	"strings"
)

// ErrRingExhausted is the sentinel matched by errors.Is when a request
// has spent its entire retry budget without any node of the ring
// accepting it. The concrete error is always a *RingExhaustedError
// carrying each node's last observed state — callers distinguishing "the
// worker gave up" from "the whole deployment was unreachable" (the fleet
// report does, and so does the router's 503) match the sentinel; callers
// diagnosing which node failed how use errors.As.
var ErrRingExhausted = errors.New("failover ring exhausted")

// NodeStatus is one ring member's terminal state when the retry budget
// ran out: the last HTTP status it answered (0 when its last failure was
// a transport error) and the error describing that failure.
type NodeStatus struct {
	BaseURL string
	Status  int
	Err     error
}

// RingExhaustedError reports a request that failed on every node it
// tried. It wraps the final attempt's error and matches ErrRingExhausted
// under errors.Is.
type RingExhaustedError struct {
	// Nodes holds the last observed state per ring member, in ring order;
	// members never tried (budget exhausted first) are absent.
	Nodes []NodeStatus
	// last is the final attempt's error, preserved for errors.Is/As
	// chains (a context cancellation mid-ring must stay matchable).
	last error
}

func (e *RingExhaustedError) Error() string {
	var b strings.Builder
	b.WriteString("failover ring exhausted:")
	for _, n := range e.Nodes {
		b.WriteString(" [")
		b.WriteString(n.BaseURL)
		b.WriteString(": ")
		b.WriteString(n.Err.Error())
		b.WriteString("]")
	}
	return b.String()
}

// Is matches the ErrRingExhausted sentinel.
func (e *RingExhaustedError) Is(target error) bool { return target == ErrRingExhausted }

// Unwrap exposes the last attempt's error so wrapped causes (transport
// errors, context cancellation) remain matchable through the ring error.
func (e *RingExhaustedError) Unwrap() error { return e.last }

// exhausted builds the typed error from the per-node record Do keeps
// (indexed by ring position; BaseURL == "" means untried) around the final
// attempt's error.
func exhausted(tried []NodeStatus, lastErr error) error {
	e := &RingExhaustedError{last: lastErr}
	for _, n := range tried {
		if n.BaseURL != "" {
			e.Nodes = append(e.Nodes, n)
		}
	}
	return e
}
