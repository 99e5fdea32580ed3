package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Replication headers.
const (
	// EpochHeader advertises the serving node's replication epoch on every
	// response. Clients remember the highest epoch they have seen; a node
	// answering with a lower one is a deposed primary.
	EpochHeader = "X-Kscope-Epoch"
	// FencedHeader marks a write rejected because this node has been
	// fenced by a newer primary. The client should fail over, not retry
	// here.
	FencedHeader = "X-Kscope-Fenced"
)

// ReplicationStatus is the server's live view of its replication role.
// replica.Primary satisfies it directly.
type ReplicationStatus interface {
	// Epoch is the term this node serves in.
	Epoch() uint64
	// Fenced reports whether a newer primary has taken over.
	Fenced() bool
	// Lag is how far the follower trails: unacked frames and bytes.
	Lag() (frames uint64, bytes int64)
	// State names the stream state ("connecting", "catchup", "steady",
	// "fenced", or "detached" for a primary with no follower).
	State() string
	// Barrier blocks until everything written so far is follower-acked
	// (or returns an error when the stream cannot confirm it in time).
	// The duplicate-upload path runs it before answering 409: a 409 is an
	// acknowledgement, and under follower-acked replication no record may
	// be acknowledged while its replication is unconfirmed.
	Barrier() error
}

// WithReplication wires replication awareness into the server: the epoch
// header on every response, write fencing once deposed, and /readyz
// accounting for replication lag. maxLagFrames > 0 turns excessive lag
// into a not-ready signal (load balancers stop sending new crowds to a
// primary whose standby has fallen too far behind); 0 disables the check.
func WithReplication(rs ReplicationStatus, maxLagFrames uint64) Option {
	return func(s *Server) {
		s.repl = rs
		s.replMaxLag = maxLagFrames
	}
}

// WithEpoch advertises a fixed epoch with no live stream behind it — the
// shape of a freshly promoted primary that has no standby yet.
func WithEpoch(epoch uint64) Option {
	return func(s *Server) { s.repl = staticEpoch(epoch) }
}

// staticEpoch is the degenerate ReplicationStatus of a detached primary.
type staticEpoch uint64

func (e staticEpoch) Epoch() uint64      { return uint64(e) }
func (staticEpoch) Fenced() bool         { return false }
func (staticEpoch) Lag() (uint64, int64) { return 0, 0 }
func (staticEpoch) State() string        { return "detached" }
func (staticEpoch) Barrier() error       { return nil }

// replWriteRefused maps a failed store write on a fenced node to the
// failover answer. A primary can lose leadership between replPreamble and
// the write itself — the follower rejects its epoch mid-request — and the
// resulting ship error is not an infrastructure fault: it means a newer
// primary owns the data now. 503 + the fenced marker steers the client to
// rotate instead of retrying here. Returns true when it wrote the response.
func (s *Server) replWriteRefused(w http.ResponseWriter, err error) bool {
	if s.repl == nil || !s.repl.Fenced() {
		return false
	}
	w.Header().Set(FencedHeader, "1")
	writeShed(w, http.StatusServiceUnavailable, time.Second,
		"write refused: epoch %d lost leadership to a newer primary: %v", s.repl.Epoch(), err)
	return true
}

// replAckBarrier guards an acknowledgement (201 already carries it via the
// write itself; this is for 409, which acknowledges a record stored by an
// earlier, possibly unreplicated attempt). On barrier failure it writes
// the retry answer and returns false — the caller must not send the 409.
func (s *Server) replAckBarrier(w http.ResponseWriter) bool {
	if s.repl == nil {
		return true
	}
	err := s.repl.Barrier()
	if err == nil {
		return true
	}
	if !s.replWriteRefused(w, err) {
		writeShed(w, http.StatusServiceUnavailable, time.Second,
			"session stored but its replication is unconfirmed: %v; retry after the indicated delay", err)
	}
	return false
}

// replPreamble stamps the epoch header and intercepts writes on a fenced
// node. It returns false when the request was fully answered (fenced).
func (s *Server) replPreamble(w http.ResponseWriter, r *http.Request) bool {
	if s.repl == nil {
		return true
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(s.repl.Epoch(), 10))
	if s.repl.Fenced() && isWrite(r) && strings.HasPrefix(r.URL.Path, "/api/") {
		// A fenced primary must not take writes: they could never be
		// acknowledged (the follower refuses its epoch) and accepting
		// them would fork history against the promoted node. Reads stay
		// available — stale but honest.
		w.Header().Set(FencedHeader, "1")
		writeShed(w, http.StatusServiceUnavailable, time.Second,
			"fenced: a newer primary holds epoch %d leadership; write refused", s.repl.Epoch())
		return false
	}
	return true
}
