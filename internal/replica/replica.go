// Package replica turns the store's single-machine WAL into a replicated
// log: a primary ships every WAL frame the store appends to a warm-standby
// follower, the follower appends the identical bytes to its own collection
// logs (replaying them through the store's normal Open/repair path at
// promotion time), and an epoch number fences a deposed primary the moment
// a follower is promoted past it.
//
// The design leans on two properties the store already guarantees. First,
// WAL replay is idempotent — records are last-write-wins upserts keyed by
// id — so replication only has to be at-least-once: duplicated frames,
// frames racing a snapshot, or a re-sent tail after a reconnect all
// converge to the same documents. Second, the follower's log is repaired by
// the same scanWAL/recoverWAL machinery as a local crash, so a request torn
// mid-apply on the standby is indistinguishable from a torn local append
// and heals identically.
//
// One write, in order: the store appends the frames to the primary's WAL
// file; then, at the same time, it fsyncs them (as its sync policy demands)
// and hands them to Primary.Ship, which numbers them, buffers them and
// POSTs them; the follower verifies each frame twice, appends, fsyncs once
// per touched collection and replies with its position; the store
// acknowledges once both the local fsync and Ship have returned nil. A
// frame therefore leaves the machine written but not yet fsynced — as it
// always has under the store's default SyncInterval policy.
// A frame the follower holds and a power-failed primary lost was never
// acknowledged: a promoted follower may keep it (at-least-once), and a
// restarted primary resets the follower to its own files by snapshot.
//
// Topology and failure model: one primary, one follower, an unreliable
// link (the tests drive it through netsim.ChaosTransport). The primary
// buffers unacked frames; a follower that falls behind the buffer — or
// meets this primary process for the first time — is caught up with a
// snapshot (the raw on-disk WAL files at a sequence watermark) followed by
// the buffered tail. There is one acknowledgement rule: Ship returns only
// once the follower has fsynced the frames, so an acked upload survives the
// loss of either machine.
//
// What each side persists: the primary, nothing beyond its store — sequence
// numbers live in memory and start over with each Primary, which is why a
// follower's position is only believed by the process that assigned it.
// The follower, its WAL files per request and its position file (epoch,
// sequence, promoted) only when an epoch is adopted, a snapshot lands, it
// is promoted, or it is Closed; a follower that stops without Close comes
// back at or behind its data and is healed by resend or snapshot.
//
// Fencing: every frame and every replication request carries the primary's
// epoch. A follower rejects anything minted in an epoch lower than its own
// with HTTP 409, and promotion bumps the follower's epoch — durably, before
// promotion returns — so a deposed primary's next ship fails closed and
// Primary marks itself fenced.
package replica

import (
	"errors"
	"time"
)

// HTTP surface the follower exposes (mounted by Node, consumed by Primary).
const (
	PathFrames   = "/repl/frames"
	PathSnapshot = "/repl/snapshot"
	PathStatus   = "/repl/status"

	// HeaderEpoch carries the sender's epoch on requests and the
	// follower's current epoch on responses.
	HeaderEpoch = "X-Kscope-Repl-Epoch"
	// HeaderSeq carries the snapshot watermark on snapshot requests.
	HeaderSeq = "X-Kscope-Repl-Seq"
)

// AckMode names an acknowledgement policy.
//
// Deprecated: there is one policy, AckFollower; PrimaryConfig.Mode is
// ignored.
type AckMode int

// AckFollower withholds the acknowledgement until the follower has
// accepted the frames: an acked upload survives losing either node.
//
// Deprecated: it is the only policy, and the zero value.
const AckFollower AckMode = 0

// Errors surfaced by the primary's Ship path.
var (
	// ErrFenced means the follower reported a higher epoch: this primary
	// has been deposed and must stop acknowledging writes permanently.
	ErrFenced = errors.New("replica: primary fenced by higher epoch")
	// ErrStaleEpoch is the decoded form of the follower's 409: the request
	// carried an epoch below the follower's.
	ErrStaleEpoch = errors.New("replica: stale epoch rejected by follower")
	// ErrLagging means a write timed out waiting for the replication
	// stream to become healthy (catch-up or reconnect in progress). The
	// write is locally durable but unacknowledged.
	ErrLagging = errors.New("replica: follower unavailable or catching up")
)

// Defaults for Primary tuning knobs.
const (
	// DefaultShipTimeout bounds how long a write waits for the stream to
	// be healthy and the send to complete.
	DefaultShipTimeout = 5 * time.Second
	// DefaultMaxBuffer is the pending-frame cap; beyond it the oldest
	// unacked frames are dropped and the follower will need a snapshot.
	DefaultMaxBuffer = 65536
	// DefaultRetryInterval paces reconnect/catch-up attempts.
	DefaultRetryInterval = 250 * time.Millisecond
)
