package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/store"
)

// primaryState is where the replication stream stands.
type primaryState int

const (
	// stateConnecting: no healthy stream; the background loop is probing
	// the follower (initial connect, or after a send failure).
	stateConnecting primaryState = iota
	// stateCatchup: the follower is too far behind the buffer (or joined
	// fresh) and a snapshot transfer is in flight.
	stateCatchup
	// stateSteady: the follower is within the buffered tail; frames ship
	// directly.
	stateSteady
	// stateFenced: the follower reported a higher epoch. Terminal — this
	// primary has been deposed and must never acknowledge another write.
	stateFenced
)

func (s primaryState) String() string {
	switch s {
	case stateCatchup:
		return "catchup"
	case stateSteady:
		return "steady"
	case stateFenced:
		return "fenced"
	default:
		return "connecting"
	}
}

// pendingBatch is the rendered outer lines of one Ship call awaiting
// follower ack: one buffer, POSTed as it is.
type pendingBatch struct {
	first, last uint64 // sequence numbers of its first and last frame
	lines       []byte // full #r1 lines, newlines included
}

func (b pendingBatch) frames() int { return int(b.last - b.first + 1) }

// PrimaryConfig configures NewPrimary.
type PrimaryConfig struct {
	// FollowerURL is the base URL of the follower's replication surface
	// (Node or Follower mounted at /).
	FollowerURL string
	// Epoch is the term this primary mints frames in.
	Epoch uint64
	// Mode is ignored: every write waits for the follower.
	//
	// Deprecated: leave it unset.
	Mode AckMode
	// Transport lets tests route the replication link through
	// netsim.ChaosTransport (http.DefaultTransport when nil).
	Transport http.RoundTripper
	// ShipTimeout bounds a write's wait for a healthy stream plus the send
	// itself (DefaultShipTimeout when zero).
	ShipTimeout time.Duration
	// MaxBuffer caps buffered unacked frames; overflow drops the oldest
	// and forces the follower through snapshot catch-up
	// (DefaultMaxBuffer when zero).
	MaxBuffer int
	// RetryInterval paces the background reconnect/catch-up loop
	// (DefaultRetryInterval when zero).
	RetryInterval time.Duration
	// Registry receives kscope_repl_* primary metrics (optional).
	Registry *obs.Registry
}

// Primary is the shipping half of the replicated backend: it implements
// store.Shipper, assigns each WAL frame the store hands it a global
// sequence number, and delivers the stream to the follower — tail frames
// when the follower is close, snapshot + tail when it is not.
//
// Sequence numbers belong to one Primary value — one process incarnation:
// Bind starts them over. A position a follower reports is therefore only
// believed once this incarnation has put the follower on its own numbering
// with a snapshot (onStream), and never when it lies beyond the last
// number assigned here.
type Primary struct {
	cfg   PrimaryConfig
	httpc *http.Client

	mu       sync.Mutex
	db       *store.DB
	state    primaryState
	stateCh  chan struct{} // closed+replaced on every state or ack change
	seq      uint64        // last assigned sequence number
	floor    uint64        // highest seq NOT in the buffer (dropped or pre-bind)
	acked    uint64        // highest follower-acked sequence number; <= seq
	onStream bool          // the follower took a snapshot minted by this incarnation
	buffer   []pendingBatch
	bufCount int // frames in buffer
	bufBytes int64
	lastErr  error

	// sendMu serializes frame POSTs, which is also what turns concurrent
	// writers into a natural group commit: the first sender ships
	// everything pending, the rest find their seq already acked.
	sendMu sync.Mutex

	kickCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	framesShipped *obs.Counter
	bytesShipped  *obs.Counter
	snapshotsSent *obs.Counter
	sendErrors    *obs.Counter
}

// NewPrimary builds a primary shipping to cfg.FollowerURL. The typical
// wiring order is: p := NewPrimary(cfg); db, err :=
// store.OpenBackend(store.Replicated(dir, p), ...); p.Bind(db). Writes
// must not start before Bind.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	if cfg.FollowerURL == "" {
		return nil, fmt.Errorf("replica: primary needs a follower URL")
	}
	if cfg.ShipTimeout <= 0 {
		cfg.ShipTimeout = DefaultShipTimeout
	}
	if cfg.MaxBuffer <= 0 {
		cfg.MaxBuffer = DefaultMaxBuffer
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = DefaultRetryInterval
	}
	p := &Primary{
		cfg:     cfg,
		httpc:   &http.Client{Transport: cfg.Transport, Timeout: cfg.ShipTimeout},
		state:   stateConnecting,
		stateCh: make(chan struct{}),
		kickCh:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if r := cfg.Registry; r != nil {
		p.framesShipped = r.Counter("kscope_repl_frames_shipped")
		p.bytesShipped = r.Counter("kscope_repl_bytes_shipped")
		p.snapshotsSent = r.Counter("kscope_repl_snapshots_sent")
		p.sendErrors = r.Counter("kscope_repl_send_errors_total")
		r.RegisterGauge("kscope_repl_epoch", func() float64 { return float64(cfg.Epoch) })
		r.RegisterGauge("kscope_repl_lag_frames", func() float64 {
			lagF, _ := p.Lag()
			return float64(lagF)
		})
		r.RegisterGauge("kscope_repl_lag_bytes", func() float64 {
			_, lagB := p.Lag()
			return float64(lagB)
		})
		r.RegisterGauge("kscope_repl_fenced", func() float64 {
			if p.Fenced() {
				return 1
			}
			return 0
		})
	}
	return p, nil
}

// Bind attaches the opened database (the snapshot source) and starts the
// background replication loop, whose first contact with the follower is
// always a snapshot transfer (see reconnect). A database that already holds
// data is represented as sequence 1, so Lag reads nonzero until that
// history has reached the follower.
func (p *Primary) Bind(db *store.DB) {
	p.mu.Lock()
	p.db = db
	for _, name := range db.CollectionNames() {
		if db.Collection(name).Count() > 0 {
			p.seq, p.floor = 1, 1
			break
		}
	}
	p.mu.Unlock()
	go p.run()
	p.kick()
}

// Epoch returns the term this primary mints frames in.
func (p *Primary) Epoch() uint64 { return p.cfg.Epoch }

// Fenced reports whether the follower has deposed this primary.
func (p *Primary) Fenced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == stateFenced
}

// State names the stream state ("connecting", "catchup", "steady",
// "fenced") for /readyz and logs.
func (p *Primary) State() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.String()
}

// Lag reports how far the follower trails: unacked frames and the bytes
// buffered for it.
func (p *Primary) Lag() (frames uint64, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.acked < p.seq {
		frames = p.seq - p.acked
	}
	return frames, p.bufBytes
}

// Close stops the background loop. It does not fence the primary.
func (p *Primary) Close() {
	p.stopOnce.Do(func() { close(p.done) })
}

// Ship implements store.Shipper. It is called with the owning collection's
// lock held, once the frames are in the local WAL file and while the store
// fsyncs them (the store joins the two before it acknowledges): it stamps
// each framed line with the epoch and the next sequence numbers, buffers
// the rendered outer lines, and synchronously drives them to the follower,
// failing the write if the follower cannot be reached in time.
func (p *Primary) Ship(collection string, frames []byte, records int) error {
	p.mu.Lock()
	if p.state == stateFenced {
		p.mu.Unlock()
		return ErrFenced
	}
	batch := pendingBatch{
		first: p.seq + 1,
		lines: make([]byte, 0, len(frames)+records*(frameOverhead+len(collection))),
	}
	for rest := frames; len(rest) > 0; {
		var line []byte
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			line, rest = rest, nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		p.seq++
		batch.lines = appendFrame(batch.lines, p.cfg.Epoch, p.seq, collection, line)
	}
	last := p.seq
	if last >= batch.first {
		batch.last = last
		p.buffer = append(p.buffer, batch)
		p.bufCount += batch.frames()
		p.bufBytes += int64(len(batch.lines))
	}
	p.trimOverflowLocked()
	p.mu.Unlock()
	return p.shipSync(last)
}

// shipSync blocks until seq last is follower-acked, the stream fences, or
// the ship timeout expires. While the stream is steady it drives the send
// itself; while connecting or catching up it waits for the background loop
// to restore the stream.
func (p *Primary) shipSync(last uint64) error {
	deadline := time.Now().Add(p.cfg.ShipTimeout)
	for {
		p.mu.Lock()
		switch {
		case p.state == stateFenced:
			p.mu.Unlock()
			return ErrFenced
		case p.acked >= last:
			p.mu.Unlock()
			return nil
		case p.state == stateSteady:
			p.mu.Unlock()
			if err := p.drain(); err != nil {
				if errors.Is(err, ErrFenced) {
					return err
				}
				// Transient send failure: drain already dropped the stream
				// to connecting, so loop back into the wait branch and let
				// the background loop restore it. One lost POST on a flaky
				// replication link must not fail an upload that still has
				// deadline budget left.
			}
		default:
			ch := p.stateCh
			p.mu.Unlock()
			p.kick()
			wait := time.Until(deadline)
			if wait <= 0 {
				return ErrLagging
			}
			t := time.NewTimer(wait)
			select {
			case <-ch:
				t.Stop()
			case <-t.C:
				return ErrLagging
			}
		}
		if time.Now().After(deadline) {
			return ErrLagging
		}
	}
}

// Barrier blocks until every sequence number assigned so far is
// follower-acked. The server uses it before answering 409 to a duplicate
// upload: a record can sit in the local store with its replication still
// unconfirmed — its Ship failed after the local append — and acknowledging
// the duplicate without this barrier would mint an ack the follower cannot
// honor after a failover.
func (p *Primary) Barrier() error {
	p.mu.Lock()
	last := p.seq
	p.mu.Unlock()
	return p.shipSync(last)
}

// drain POSTs every buffered unacked frame to the follower and advances
// the ack watermark from the reply. Serialized by sendMu; a failure drops
// the stream back to connecting (the background loop reconnects) and is
// returned to the caller.
func (p *Primary) drain() error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	p.mu.Lock()
	if p.state != stateSteady || p.acked >= p.seq || len(p.buffer) == 0 {
		p.mu.Unlock()
		return nil
	}
	// Acked batches are trimmed as the watermark rises, so what is buffered
	// is what is owed (a batch a snapshot watermark split is re-sent whole;
	// the follower skips the frames it has). The usual case — one writer,
	// one batch — is POSTed from the buffer Ship rendered it into.
	body, n := p.buffer[0].lines, p.bufCount
	if len(p.buffer) > 1 {
		body = make([]byte, 0, p.bufBytes)
		for _, b := range p.buffer {
			body = append(body, b.lines...)
		}
	}
	p.mu.Unlock()
	reply, status, err := p.post(PathFrames, body, nil)
	if err != nil {
		p.streamDown(err)
		return fmt.Errorf("replica: shipping frames: %w", err)
	}
	if fenced := p.checkReply(reply, status); fenced != nil {
		return fenced
	}
	if status != http.StatusOK {
		err := fmt.Errorf("replica: follower rejected frames: HTTP %d", status)
		p.streamDown(err)
		return err
	}
	if err := p.advanceAcked(reply.Acked); err != nil {
		return err
	}
	if p.framesShipped != nil {
		p.framesShipped.Add(int64(n))
		p.bytesShipped.Add(int64(len(body)))
	}
	return nil
}

// post sends one replication request with the epoch header (plus extras)
// and decodes the follower's reply when it has one.
func (p *Primary) post(path string, body []byte, extra map[string]string) (statusReply, int, error) {
	req, err := http.NewRequest(http.MethodPost, p.cfg.FollowerURL+path, bytes.NewReader(body))
	if err != nil {
		return statusReply{}, 0, err
	}
	req.Header.Set(HeaderEpoch, strconv.FormatUint(p.cfg.Epoch, 10))
	for k, v := range extra {
		req.Header.Set(k, v)
	}
	resp, err := p.httpc.Do(req)
	if err != nil {
		return statusReply{}, 0, err
	}
	defer resp.Body.Close()
	var reply statusReply
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = json.Unmarshal(data, &reply)
	return reply, resp.StatusCode, nil
}

// checkReply fences the primary when the follower's reply proves a higher
// term exists. Returns nil when the reply is not a fence.
func (p *Primary) checkReply(reply statusReply, status int) error {
	if status == http.StatusConflict || reply.Epoch > p.cfg.Epoch || reply.Promoted {
		p.mu.Lock()
		if p.state != stateFenced {
			p.state = stateFenced
			p.lastErr = ErrStaleEpoch
			p.broadcastLocked()
		}
		p.mu.Unlock()
		return ErrFenced
	}
	return nil
}

// streamDown records a send failure and drops back to connecting.
func (p *Primary) streamDown(err error) {
	if p.sendErrors != nil {
		p.sendErrors.Inc()
	}
	p.mu.Lock()
	if p.state == stateSteady || p.state == stateCatchup {
		p.state = stateConnecting
		p.broadcastLocked()
	}
	p.lastErr = err
	p.mu.Unlock()
	p.kick()
}

// advanceAcked raises the ack watermark to a position the follower
// reported and trims the batches it covers. A position beyond every
// sequence number assigned here cannot be about this incarnation's stream
// (the follower is still on a predecessor's numbering): it is not believed,
// the stream drops, and the next contact resets the follower by snapshot.
func (p *Primary) advanceAcked(acked uint64) error {
	p.mu.Lock()
	err := p.advanceAckedLocked(acked)
	p.broadcastLocked()
	p.mu.Unlock()
	if err != nil {
		p.streamDown(err)
	}
	return err
}

// advanceAckedLocked is advanceAcked with p.mu held; waking the waiters and
// dropping the stream on an error are the caller's.
func (p *Primary) advanceAckedLocked(acked uint64) error {
	if acked > p.seq {
		p.onStream = false
		return fmt.Errorf("replica: follower position %d is beyond sequence %d: not this primary's stream", acked, p.seq)
	}
	if acked <= p.acked {
		return nil
	}
	p.acked = acked
	if p.acked > p.floor {
		p.floor = p.acked
	}
	for len(p.buffer) > 0 && p.buffer[0].last <= p.acked {
		p.dropOldestLocked()
	}
	return nil
}

// dropOldestLocked forgets the oldest buffered batch.
func (p *Primary) dropOldestLocked() {
	b := p.buffer[0]
	p.buffer = p.buffer[1:]
	p.bufCount -= b.frames()
	p.bufBytes -= int64(len(b.lines))
}

// trimOverflowLocked enforces the buffer cap by dropping the oldest
// batches. The follower cannot be streamed past that gap, so a steady
// stream drops to connecting: reconnect compares the follower's position
// with the floor and closes the gap by snapshot.
func (p *Primary) trimOverflowLocked() {
	dropped := false
	for p.bufCount > p.cfg.MaxBuffer {
		p.floor = p.buffer[0].last
		p.dropOldestLocked()
		dropped = true
	}
	if dropped && p.state == stateSteady {
		p.state = stateConnecting
		p.broadcastLocked()
	}
}

// broadcastLocked wakes everyone waiting on a state or ack change.
func (p *Primary) broadcastLocked() {
	close(p.stateCh)
	p.stateCh = make(chan struct{})
}

// kick nudges the background loop without blocking.
func (p *Primary) kick() {
	select {
	case p.kickCh <- struct{}{}:
	default:
	}
}

// run is the background loop: reconnect and catch the follower up while
// the stream is down, drain queued frames while it is steady. Exits on
// Close or fencing.
func (p *Primary) run() {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-p.kickCh:
		case <-timer.C:
		}
		timer.Reset(p.cfg.RetryInterval)
		p.mu.Lock()
		st := p.state
		pending := p.acked < p.seq
		p.mu.Unlock()
		switch st {
		case stateFenced:
			return
		case stateConnecting:
			p.reconnect()
		case stateSteady:
			if pending {
				_ = p.drain()
			}
		}
	}
}

// reconnect probes the follower and restores the stream: straight to
// steady when the follower is on this incarnation's numbering and its
// position is inside the buffered tail, through a snapshot transfer
// otherwise — which is always the case on an incarnation's first contact.
func (p *Primary) reconnect() {
	req, err := http.NewRequest(http.MethodGet, p.cfg.FollowerURL+PathStatus, nil)
	if err != nil {
		return
	}
	resp, err := p.httpc.Do(req)
	if err != nil {
		p.mu.Lock()
		p.lastErr = err
		p.mu.Unlock()
		return
	}
	var reply statusReply
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if err := json.Unmarshal(data, &reply); err != nil {
		p.mu.Lock()
		p.lastErr = fmt.Errorf("replica: bad status reply: %w", err)
		p.mu.Unlock()
		return
	}
	if p.checkReply(reply, resp.StatusCode) != nil {
		return
	}
	p.mu.Lock()
	if p.state == stateFenced {
		p.mu.Unlock()
		return
	}
	// The follower's position only means something inside our own stream:
	// a follower on another primary's epoch, or on the numbering of an
	// earlier incarnation at this epoch (a primary restarted with the same
	// -epoch starts counting again), reports positions from that stream,
	// and treating them as ours would mark frames shipped that never left
	// this machine. Both go through snapshot catch-up, which adopts our
	// epoch and jumps the follower onto our numbering. No exception is made
	// for a pair that looks empty: a follower's position may lag its data,
	// so its reply cannot show that it holds nothing, and the snapshot of
	// an empty primary is an empty POST.
	if p.onStream && reply.Epoch == p.cfg.Epoch && reply.Acked >= p.floor && reply.Acked <= p.seq {
		// The buffered tail covers the follower; stream directly.
		p.state = stateSteady
		_ = p.advanceAckedLocked(reply.Acked) // within seq: checked above
		p.broadcastLocked()
		p.mu.Unlock()
		p.kick() // drain whatever queued while down
		return
	}
	p.state = stateCatchup
	p.broadcastLocked()
	p.mu.Unlock()
	p.sendSnapshot()
}

// sendSnapshot ships the raw on-disk WAL files at the current sequence
// watermark. No collection locks are taken: sequence assignment and
// document apply share one lock hold on the primary's write path, so every
// record with seq <= the watermark is already in its file when we read it;
// a torn final line from a concurrent append is skipped by the follower's
// replay, and any newer records the files happen to contain are
// re-delivered by the tail and applied idempotently.
func (p *Primary) sendSnapshot() {
	p.mu.Lock()
	db := p.db
	watermark := p.seq
	p.mu.Unlock()
	if db == nil {
		return
	}
	var body bytes.Buffer
	for _, name := range db.CollectionNames() {
		wal, err := db.SnapshotWAL(name)
		if err != nil {
			p.streamDown(err)
			return
		}
		if wal == nil {
			continue
		}
		appendSnapshotSection(&body, name, wal)
	}
	reply, status, err := p.post(PathSnapshot, body.Bytes(), map[string]string{
		HeaderSeq: strconv.FormatUint(watermark, 10),
	})
	if err != nil {
		p.streamDown(fmt.Errorf("replica: shipping snapshot: %w", err))
		return
	}
	if p.checkReply(reply, status) != nil {
		return
	}
	if status != http.StatusOK {
		p.streamDown(fmt.Errorf("replica: follower rejected snapshot: HTTP %d", status))
		return
	}
	if p.snapshotsSent != nil {
		p.snapshotsSent.Inc()
	}
	p.mu.Lock()
	p.onStream = true
	err = p.advanceAckedLocked(reply.Acked)
	if err == nil && p.state == stateCatchup {
		if p.acked >= p.floor {
			p.state = stateSteady
		} else {
			// The buffer overflowed again while the snapshot was in
			// flight; go around once more.
			p.state = stateConnecting
		}
	}
	p.broadcastLocked()
	p.mu.Unlock()
	if err != nil {
		p.streamDown(err)
		return
	}
	p.kick()
}

// Probe sends an empty frames request stamped with this primary's epoch —
// a write-free way to ask "would the follower still take my frames?". A
// fenced primary gets ErrStaleEpoch, which is exactly what the failover
// test uses to prove the fence holds.
func (p *Primary) Probe() error {
	reply, status, err := p.post(PathFrames, nil, nil)
	if err != nil {
		return err
	}
	if fenced := p.checkReply(reply, status); fenced != nil {
		return ErrStaleEpoch
	}
	if status != http.StatusOK {
		return fmt.Errorf("replica: probe rejected: HTTP %d", status)
	}
	return nil
}

// LastErr returns the most recent stream error (nil when healthy).
func (p *Primary) LastErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastErr
}
