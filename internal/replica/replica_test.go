package replica

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/store"
)

// openPrimary wires the standard topology: a follower serving from fdir, a
// primary persisting to pdir and shipping to it.
func openPrimary(t *testing.T, pdir string, followerURL string, cfg PrimaryConfig) (*store.DB, *Primary) {
	t.Helper()
	cfg.FollowerURL = followerURL
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = 10 * time.Millisecond
	}
	if cfg.ShipTimeout == 0 {
		cfg.ShipTimeout = 5 * time.Second
	}
	p, err := NewPrimary(cfg)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	db, err := store.OpenBackend(store.Replicated(pdir, p), store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		t.Fatalf("OpenBackend: %v", err)
	}
	p.Bind(db)
	t.Cleanup(func() { p.Close(); db.Close() })
	return db, p
}

func newFollower(t *testing.T, dir string) (*Follower, *httptest.Server) {
	t.Helper()
	f, err := NewFollower(FollowerConfig{Dir: dir})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, ts
}

// docsOf snapshots a collection's documents by id.
func docsOf(t *testing.T, db *store.DB, coll string) map[string]store.Document {
	t.Helper()
	out := make(map[string]store.Document)
	for _, d := range db.Collection(coll).Find(nil) {
		out[d.ID()] = d
	}
	return out
}

func TestStreamReplicationAndPromote(t *testing.T) {
	f, ts := newFollower(t, t.TempDir())
	db, p := openPrimary(t, t.TempDir(), ts.URL, PrimaryConfig{Epoch: 1})

	sessions := db.Collection("sessions")
	for i := 0; i < 25; i++ {
		if _, err := sessions.Insert(store.Document{"_id": fmt.Sprintf("s-%d", i), "n": i}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if _, err := db.Collection("tests").Insert(store.Document{"_id": "t1", "name": "demo"}); err != nil {
		t.Fatalf("insert test doc: %v", err)
	}
	if err := sessions.Delete("s-3"); err != nil {
		t.Fatalf("delete: %v", err)
	}

	// AckFollower: by the time the writes returned, the follower has them.
	if got, want := f.AckedSeq(), uint64(27); got != want {
		t.Fatalf("follower acked seq = %d, want %d", got, want)
	}
	lagF, lagB := p.Lag()
	if lagF != 0 || lagB != 0 {
		t.Fatalf("lag = %d frames / %d bytes, want 0/0", lagF, lagB)
	}

	promoted, epoch, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer promoted.Close()
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	if got, want := docsOf(t, promoted, "sessions"), docsOf(t, db, "sessions"); !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted sessions diverge:\n got %v\nwant %v", got, want)
	}
	if got, want := docsOf(t, promoted, "tests"), docsOf(t, db, "tests"); !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted tests diverge:\n got %v\nwant %v", got, want)
	}
	if _, ok := docsOf(t, promoted, "sessions")["s-3"]; ok {
		t.Fatalf("deleted document survived replication")
	}
}

func TestSnapshotCatchupForFreshFollower(t *testing.T) {
	pdir := t.TempDir()
	// Data written before replication existed (plain dir backend).
	seed, err := store.Open(pdir, store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		if _, err := seed.Collection("sessions").Insert(store.Document{"_id": fmt.Sprintf("old-%d", i)}); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
	}
	seed.Close()

	f, ts := newFollower(t, t.TempDir())
	db, p := openPrimary(t, pdir, ts.URL, PrimaryConfig{Epoch: 1})

	// A fresh follower (acked 0) against a primary with history must be
	// caught up by snapshot, not by a tail that cannot contain it.
	if _, err := db.Collection("sessions").Insert(store.Document{"_id": "new-0"}); err != nil {
		t.Fatalf("insert after bind: %v", err)
	}
	if p.State() != "steady" {
		t.Fatalf("primary state = %s, want steady", p.State())
	}

	promoted, _, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer promoted.Close()
	if got, want := docsOf(t, promoted, "sessions"), docsOf(t, db, "sessions"); !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted store diverges after snapshot catch-up:\n got %d docs\nwant %d docs", len(got), len(want))
	}
}

func TestSnapshotCatchupAfterBufferOverflow(t *testing.T) {
	fdir := t.TempDir()
	f, ts := newFollower(t, fdir)
	// Follower down for a while: stop the server, overflow the buffer. No
	// write is acknowledged, but each is in the primary's log.
	ts.Close()
	db, p := openPrimary(t, t.TempDir(), ts.URL, PrimaryConfig{
		Epoch: 1, MaxBuffer: 8, ShipTimeout: 2 * time.Millisecond,
	})
	for i := 0; i < 50; i++ {
		if _, err := db.Collection("sessions").Insert(store.Document{"_id": fmt.Sprintf("s-%d", i)}); !errors.Is(err, ErrLagging) {
			t.Fatalf("insert %d with the follower down: %v, want ErrLagging", i, err)
		}
	}
	// Bring the follower back on a fresh listener at a new URL: rebuild
	// the primary link by pointing a new primary at it (same store).
	ts2 := httptest.NewServer(f)
	defer ts2.Close()
	p.Close()
	p2, err := NewPrimary(PrimaryConfig{FollowerURL: ts2.URL, Epoch: 1, RetryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	defer p2.Close()
	// Rebind on the same (still open) DB: a new primary's first contact is
	// always the snapshot path.
	p2.Bind(db)
	waitState(p2, stateSteady)
	promoted, _, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer promoted.Close()
	if got, want := len(docsOf(t, promoted, "sessions")), 50; got != want {
		t.Fatalf("promoted store has %d sessions, want %d", got, want)
	}
}

// TestZeroConfigWaitsForFollower: a PrimaryConfig that names only its
// follower never acknowledges a write the follower does not hold.
func TestZeroConfigWaitsForFollower(t *testing.T) {
	f, ts := newFollower(t, t.TempDir())
	ts.Close()
	db, _ := openPrimary(t, t.TempDir(), ts.URL, PrimaryConfig{ShipTimeout: 5 * time.Millisecond})
	if _, err := db.Collection("sessions").Insert(store.Document{"_id": "s-0"}); !errors.Is(err, ErrLagging) {
		t.Fatalf("insert with the follower down: %v, want ErrLagging", err)
	}
	if got := f.AckedSeq(); got != 0 {
		t.Fatalf("follower position %d, want 0", got)
	}
}

// fullDiskFS is a follower filesystem whose disk fills up once armed: every
// WriteFile but the position file's writes half its bytes and fails with
// ENOSPC, and the first such failure closes full.
type fullDiskFS struct {
	store.FileSystem
	armed atomic.Bool
	once  sync.Once
	full  chan struct{}
}

func (fs *fullDiskFS) WriteFile(path string, data []byte) error {
	if !fs.armed.Load() || strings.HasPrefix(filepath.Base(path), metaFile) {
		return fs.FileSystem.WriteFile(path, data)
	}
	defer fs.once.Do(func() { close(fs.full) })
	if err := fs.FileSystem.WriteFile(path, data[:len(data)/2]); err != nil {
		return err
	}
	return fmt.Errorf("writing %s: %w", path, syscall.ENOSPC)
}

// TestSnapshotFaultKeepsStandbyLog: a snapshot install that a full disk
// cuts short must not cost the standby the frames it acknowledged before:
// the section is written beside the log and renamed over it, so the log it
// would have replaced stays whole, and the position does not move.
func TestSnapshotFaultKeepsStandbyLog(t *testing.T) {
	fs := &fullDiskFS{FileSystem: store.OSFileSystem{}, full: make(chan struct{})}
	f, err := NewFollower(FollowerConfig{Dir: t.TempDir(), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f)
	defer ts.Close()
	pdir := t.TempDir()
	db, p := openPrimary(t, pdir, ts.URL, PrimaryConfig{Epoch: 1})
	for i := 0; i < 10; i++ {
		if _, err := db.Collection("sessions").Insert(store.Document{"_id": fmt.Sprintf("s-%d", i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	acked := f.AckedSeq()
	p.Close()
	db.Close()

	// A second primary over the same files: its first contact is a
	// snapshot, which the full disk cuts short.
	fs.armed.Store(true)
	_, p2 := openPrimary(t, pdir, ts.URL, PrimaryConfig{Epoch: 1})
	<-fs.full
	p2.Close()
	if got := f.AckedSeq(); got != acked {
		t.Errorf("follower position %d after a failed snapshot, want %d", got, acked)
	}
	promoted, _, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer promoted.Close()
	for i := 0; i < 10; i++ {
		if _, err := promoted.Collection("sessions").Get(fmt.Sprintf("s-%d", i)); err != nil {
			t.Errorf("acknowledged write s-%d lost to a failed snapshot: %v", i, err)
		}
	}
}

// waitState blocks until p's stream reaches want, woken by each state
// change rather than by a clock.
func waitState(p *Primary, want primaryState) {
	for {
		p.mu.Lock()
		st, ch := p.state, p.stateCh
		p.mu.Unlock()
		if st == want {
			return
		}
		<-ch
	}
}

func TestEpochFencing(t *testing.T) {
	f, ts := newFollower(t, t.TempDir())
	db, p := openPrimary(t, t.TempDir(), ts.URL, PrimaryConfig{Epoch: 3})

	if _, err := db.Collection("sessions").Insert(store.Document{"_id": "s-1"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	promoted, epoch, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer promoted.Close()
	if epoch != 4 {
		t.Fatalf("promoted epoch = %d, want 4", epoch)
	}

	// The fenced primary's probe must be rejected with the stale epoch...
	if err := p.Probe(); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("Probe after promotion = %v, want ErrStaleEpoch", err)
	}
	if !p.Fenced() {
		t.Fatalf("primary not fenced after stale-epoch rejection")
	}
	// ...and every subsequent write must fail without being acknowledged.
	if _, err := db.Collection("sessions").Insert(store.Document{"_id": "s-2"}); !errors.Is(err, ErrFenced) {
		t.Fatalf("insert on fenced primary = %v, want ErrFenced", err)
	}
}

func TestFollowerAdoptsHigherEpoch(t *testing.T) {
	fdir := t.TempDir()
	f, ts := newFollower(t, fdir)
	db1, _ := openPrimary(t, t.TempDir(), ts.URL, PrimaryConfig{Epoch: 1})
	if _, err := db1.Collection("sessions").Insert(store.Document{"_id": "a"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// A new primary with a higher epoch takes over the same follower.
	db2, _ := openPrimary(t, t.TempDir(), ts.URL, PrimaryConfig{Epoch: 2})
	if _, err := db2.Collection("sessions").Insert(store.Document{"_id": "b"}); err != nil {
		t.Fatalf("insert from higher epoch: %v", err)
	}
	if got := f.Epoch(); got != 2 {
		t.Fatalf("follower epoch = %d, want 2 (adopted)", got)
	}
	// The old epoch-1 primary is now fenced out.
	if _, err := db1.Collection("sessions").Insert(store.Document{"_id": "c"}); err == nil {
		t.Fatalf("epoch-1 write accepted after epoch-2 took over")
	}
}

// replyLoser is a replication link that can lose one reply: the next
// non-empty frames POST reaches the follower and is handled, then lost(),
// then the primary gets a transport error instead of the answer.
type replyLoser struct {
	armed atomic.Bool
	lost  func()
}

func (l *replyLoser) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != PathFrames || req.ContentLength == 0 || !l.armed.CompareAndSwap(true, false) {
		return resp, err
	}
	resp.Body.Close()
	l.lost()
	return nil, errors.New("test: reply lost")
}

// TestFollowerMetaSurvivesRestart: what a restarted follower remembers.
// The position file is not written per request, so only a graceful Close
// resumes exactly; a follower that just stops resumes at its adopted epoch
// and at or behind its data, and the primary closes the distance — by
// resending what it still buffers, or by snapshot.
func TestFollowerMetaSurvivesRestart(t *testing.T) {
	type pair struct {
		fdir string
		gate *followerGate
		link *replyLoser
		reg  *obs.Registry
		db   *store.DB
	}
	setup := func(t *testing.T, maxBuffer int) *pair {
		p := &pair{fdir: t.TempDir(), gate: &followerGate{}, link: &replyLoser{}, reg: obs.NewRegistry()}
		f, err := NewFollower(FollowerConfig{Dir: p.fdir})
		if err != nil {
			t.Fatal(err)
		}
		p.gate.f = f
		ts := httptest.NewServer(p.gate)
		t.Cleanup(ts.Close)
		p.db, _ = openPrimary(t, t.TempDir(), ts.URL, PrimaryConfig{
			Epoch: 7, Transport: p.link, MaxBuffer: maxBuffer, Registry: p.reg,
		})
		return p
	}
	insert := func(t *testing.T, p *pair, ids ...string) {
		t.Helper()
		for _, id := range ids {
			if _, err := p.db.Collection("sessions").Insert(store.Document{"_id": id}); err != nil {
				t.Fatalf("insert %s: %v", id, err)
			}
		}
	}
	reopen := func(t *testing.T, p *pair) *Follower {
		t.Helper()
		f, err := NewFollower(FollowerConfig{Dir: p.fdir})
		if err != nil {
			t.Fatalf("NewFollower (restart): %v", err)
		}
		return f
	}
	snapshots := func(p *pair) int64 { return p.reg.Counter("kscope_repl_snapshots_sent").Value() }
	promotedIDs := func(t *testing.T, p *pair) []string {
		t.Helper()
		promoted, _, err := p.gate.f.Promote()
		if err != nil {
			t.Fatalf("Promote: %v", err)
		}
		defer promoted.Close()
		var ids []string
		for _, d := range promoted.Collection("sessions").Find(nil) {
			ids = append(ids, d.ID())
		}
		return ids
	}

	t.Run("graceful close resumes exactly", func(t *testing.T) {
		p := setup(t, 0)
		insert(t, p, "a", "b", "c")
		old := p.gate.f
		epoch, pos, before := old.Epoch(), old.AckedSeq(), snapshots(p)
		p.gate.mu.Lock()
		if err := old.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		reborn := reopen(t, p)
		p.gate.f = reborn
		p.gate.mu.Unlock()
		if reborn.Epoch() != epoch || epoch != 7 || reborn.AckedSeq() != pos {
			t.Fatalf("closed follower reopened at %d/%d, want 7/%d", reborn.Epoch(), reborn.AckedSeq(), pos)
		}
		insert(t, p, "d")
		if got := snapshots(p); got != before {
			t.Errorf("streaming on after a graceful restart took %d snapshots, want 0", got-before)
		}
		if got, want := promotedIDs(t, p), []string{"a", "b", "c", "d"}; !reflect.DeepEqual(got, want) {
			t.Errorf("promoted sessions = %v, want %v", got, want)
		}
	})

	// The follower applies and fsyncs one more frame, its reply is lost, and
	// it stops there without Close: its file says less than its disk holds.
	abandonAfterLostReply := func(t *testing.T, p *pair) (applied uint64) {
		p.link.lost = func() {
			p.gate.mu.Lock()
			defer p.gate.mu.Unlock()
			applied = p.gate.f.AckedSeq()
			reborn, err := NewFollower(FollowerConfig{Dir: p.fdir})
			if err != nil {
				t.Errorf("NewFollower (abandoned): %v", err)
				return
			}
			if reborn.Epoch() != 7 {
				t.Errorf("abandoned follower reopened at epoch %d, want 7", reborn.Epoch())
			}
			if reborn.AckedSeq() >= applied {
				t.Errorf("abandoned follower reopened at position %d; it had applied %d and saved nothing since", reborn.AckedSeq(), applied)
			}
			p.gate.f = reborn
		}
		p.link.armed.Store(true)
		return
	}

	t.Run("abandoned follower healed by buffered resend", func(t *testing.T) {
		p := setup(t, 0)
		insert(t, p, "a", "b")
		// A graceful restart first, so the file is one frame behind — inside
		// what the primary still buffers — when the follower is abandoned.
		p.gate.mu.Lock()
		if err := p.gate.f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		p.gate.f = reopen(t, p)
		p.gate.mu.Unlock()
		before := snapshots(p)
		abandonAfterLostReply(t, p)
		insert(t, p, "c") // applied, reply lost, follower abandoned, frame resent
		insert(t, p, "d")
		if p.link.armed.Load() {
			t.Fatal("the reply was never lost; test is vacuous")
		}
		if got := snapshots(p); got != before {
			t.Errorf("healing took %d snapshots, want a resend from the buffer", got-before)
		}
		if got, want := promotedIDs(t, p), []string{"a", "b", "c", "d"}; !reflect.DeepEqual(got, want) {
			t.Errorf("promoted sessions = %v, want %v", got, want)
		}
	})

	t.Run("abandoned follower healed by snapshot", func(t *testing.T) {
		p := setup(t, 2)
		insert(t, p, "a", "b", "c", "d", "e")
		before := snapshots(p)
		abandonAfterLostReply(t, p)
		insert(t, p, "f") // applied, reply lost, follower abandoned far behind the buffer
		insert(t, p, "g")
		if p.link.armed.Load() {
			t.Fatal("the reply was never lost; test is vacuous")
		}
		if got := snapshots(p); got == before {
			t.Error("a follower behind the buffered tail was not reset by snapshot")
		}
		if got, want := promotedIDs(t, p), []string{"a", "b", "c", "d", "e", "f", "g"}; !reflect.DeepEqual(got, want) {
			t.Errorf("promoted sessions = %v, want %v", got, want)
		}
	})
}

// TestFollowerCloseRefusesTraffic: a closed follower takes no more frames
// (its position file would go stale again), and Close is idempotent.
func TestFollowerCloseRefusesTraffic(t *testing.T) {
	f, ts := newFollower(t, t.TempDir())
	if got := postFrames(t, ts.URL, "1", nil); got != http.StatusOK {
		t.Fatalf("probe before Close got HTTP %d", got)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := postFrames(t, ts.URL, "1", nil); got != http.StatusServiceUnavailable {
		t.Fatalf("frames after Close got HTTP %d, want 503", got)
	}
}

// TestFollowerSaveFailures: the three position saves that are load-bearing
// fail their request when the disk refuses them — an adopted epoch, a
// snapshot watermark and a promotion must not be forgotten by a crash.
func TestFollowerSaveFailures(t *testing.T) {
	ffs := store.NewFaultFS()
	f, err := NewFollower(FollowerConfig{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f)
	defer ts.Close()
	postSnapshot := func(epoch string) int {
		t.Helper()
		var body bytes.Buffer
		appendSnapshotSection(&body, "sessions", append(frameWAL(t), '\n'))
		req, _ := http.NewRequest(http.MethodPost, ts.URL+PathSnapshot, &body)
		req.Header.Set(HeaderEpoch, epoch)
		req.Header.Set(HeaderSeq, "9")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	ffs.FailDirSync(nil)
	if got := postFrames(t, ts.URL, "3", nil); got != http.StatusInternalServerError {
		t.Errorf("adopting epoch 3 with a failing save got HTTP %d, want 500", got)
	}
	if f.Epoch() != 0 {
		t.Errorf("follower serves epoch %d after a refused adoption", f.Epoch())
	}
	ffs.Reset()
	if got := postFrames(t, ts.URL, "3", nil); got != http.StatusOK || f.Epoch() != 3 {
		t.Fatalf("adopting epoch 3 on a healthy disk: HTTP %d, epoch %d", got, f.Epoch())
	}

	ffs.FailDirSync(nil)
	if got := postSnapshot("3"); got != http.StatusInternalServerError {
		t.Errorf("snapshot with a failing save got HTTP %d, want 500", got)
	}
	ffs.Reset()
	if got := postSnapshot("3"); got != http.StatusOK || f.AckedSeq() != 9 {
		t.Fatalf("snapshot on a healthy disk: HTTP %d, position %d", got, f.AckedSeq())
	}

	ffs.FailDirSync(nil)
	if _, _, err := f.Promote(); err == nil {
		t.Error("promotion with a failing save succeeded")
	}
	if f.Epoch() != 3 {
		t.Errorf("follower serves epoch %d after a refused promotion, want 3", f.Epoch())
	}
	if got := postFrames(t, ts.URL, "3", nil); got != http.StatusOK {
		t.Errorf("a follower whose promotion was refused must keep following; probe got HTTP %d", got)
	}
	ffs.Reset()
	promoted, epoch, err := f.Promote()
	if err != nil || epoch != 4 {
		t.Fatalf("Promote on a healthy disk: epoch %d, %v", epoch, err)
	}
	promoted.Close()
	reborn, err := NewFollower(FollowerConfig{Dir: f.dir})
	if err != nil {
		t.Fatal(err)
	}
	if reborn.Epoch() != 4 || !reborn.promoted || reborn.AckedSeq() != 9 {
		t.Errorf("after promotion the file reads epoch %d promoted=%v position %d, want 4/true/9", reborn.Epoch(), reborn.promoted, reborn.AckedSeq())
	}
}

// TestPrimaryRestartSameEpoch: a primary restarted with the epoch it had
// (-epoch defaults to 1) starts numbering again, and must not take the
// follower's position — a count in the old numbering — for an ack of frames
// it has yet to ship.
func TestPrimaryRestartSameEpoch(t *testing.T) {
	pdir := t.TempDir()
	f, ts := newFollower(t, t.TempDir())
	open := func() (*store.DB, *Primary) {
		p, err := NewPrimary(PrimaryConfig{FollowerURL: ts.URL, Epoch: 1, RetryInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		db, err := store.OpenBackend(store.Replicated(pdir, p), store.WithSyncPolicy(store.SyncAlways))
		if err != nil {
			t.Fatal(err)
		}
		p.Bind(db)
		return db, p
	}
	insert := func(db *store.DB, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := db.Collection("sessions").Insert(store.Document{"_id": fmt.Sprintf("s-%02d", i)}); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
	}
	db, p := open()
	insert(db, 0, 20)
	p.Close()
	db.Close()

	db, p = open()
	defer func() { p.Close(); db.Close() }()
	insert(db, 20, 25)
	if lag, _ := p.Lag(); lag != 0 {
		t.Errorf("Lag() = %d frames after 5 acknowledged writes, want 0", lag)
	}
	promoted, _, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer promoted.Close()
	if got := promoted.Collection("sessions").Count(); got != 25 {
		t.Fatalf("promoted follower holds %d sessions, want all 25 acknowledged", got)
	}
}

// TestBufferOverflowWhileSteady: one Ship larger than the buffer drops
// frames out of a healthy stream; the rest must not be streamed past the
// gap (the follower would acknowledge their highest number).
func TestBufferOverflowWhileSteady(t *testing.T) {
	f, ts := newFollower(t, t.TempDir())
	db, _ := openPrimary(t, t.TempDir(), ts.URL, PrimaryConfig{Epoch: 1, MaxBuffer: 4})
	// One acknowledged write first: the stream is steady when the batch lands.
	if _, err := db.Collection("tests").Insert(store.Document{"_id": "t"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	docs := make([]store.Document, 10)
	for i := range docs {
		docs[i] = store.Document{"_id": fmt.Sprintf("s-%d", i)}
	}
	if _, errs := db.Collection("sessions").InsertUniqueBatch(docs); errs[0] != nil {
		t.Fatalf("batch: %v", errs[0])
	}
	promoted, _, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer promoted.Close()
	if got := promoted.Collection("sessions").Count(); got != len(docs) {
		t.Fatalf("promoted follower holds %d of %d acknowledged sessions", got, len(docs))
	}
}

func TestFrameRoundtrip(t *testing.T) {
	inner := frameWAL(t)
	line := appendFrame(nil, 5, 42, "sessions", inner)
	// The wire format is fixed: what the fmt verbs it was specified with
	// print, byte for byte.
	body := fmt.Sprintf("%08x %016x %s %s", 5, 42, "sessions", inner)
	if want := fmt.Sprintf("#r1 %08x %s\n", crc32.ChecksumIEEE([]byte(body)), body); string(line) != want {
		t.Fatalf("rendered frame\n got %q\nwant %q", line, want)
	}
	buf := bytes.NewBuffer(line)
	frames, err := parseFrames(buf.Bytes())
	if err != nil {
		t.Fatalf("parseFrames: %v", err)
	}
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	fr := frames[0]
	if fr.epoch != 5 || fr.seq != 42 || fr.collection != "sessions" || !bytes.Equal(fr.inner, inner) {
		t.Fatalf("roundtrip mismatch: %+v", fr)
	}
	// Corrupt one byte anywhere: either the checksum rejects the line, or
	// the flip was semantically neutral (hex case in a header field) and
	// the decoded frame is unchanged.
	for i := 4; i < buf.Len()-1; i++ {
		mangled := append([]byte(nil), buf.Bytes()...)
		mangled[i] ^= 0x20
		got, err := parseFrames(mangled)
		if err != nil {
			continue
		}
		if len(got) != 1 || got[0].epoch != fr.epoch || got[0].seq != fr.seq ||
			got[0].collection != fr.collection || !bytes.Equal(got[0].inner, fr.inner) {
			t.Fatalf("mangled byte %d accepted as a different frame: %+v", i, got)
		}
	}
}

// frameWAL renders one genuine framed WAL line by writing through a
// throwaway store and reading it back off the disk.
func frameWAL(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	db, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Collection("c").Insert(store.Document{"_id": "x"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	db.Close()
	data, err := store.OSFileSystem{}.ReadFile(store.WALPath(dir, "c"))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	return bytes.TrimSuffix(data, []byte("\n"))
}

// postFrames sends a raw frames request with the given epoch header.
func postFrames(t *testing.T, url string, epoch string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+PathFrames, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if epoch != "" {
		req.Header.Set(HeaderEpoch, epoch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestFollowerRejectsForgedFrames(t *testing.T) {
	f, ts := newFollower(t, t.TempDir())
	inner := []byte("#w1 deadbeef {\"op\":\"put\",\"id\":\"x\"}") // bad inner CRC
	if got := postFrames(t, ts.URL, "1", appendFrame(nil, 1, 1, "sessions", inner)); got != http.StatusBadRequest {
		t.Fatalf("forged inner frame got HTTP %d, want 400", got)
	}
	// Path traversal in the collection name must never reach the disk.
	if got := postFrames(t, ts.URL, "1", appendFrame(nil, 1, 1, "../evil", frameWAL(t))); got != http.StatusBadRequest {
		t.Fatalf("path-traversal collection got HTTP %d, want 400", got)
	}
	if f.AckedSeq() != 0 {
		t.Fatalf("forged frames advanced the follower position")
	}
}

// TestFollowerRefusals pins the frames request's acceptance set across the
// in-place field cutting and the store's scan: each of these bodies is
// refused whole, with nothing appended and the position unmoved, and the
// same follower then takes a genuine request.
func TestFollowerRefusals(t *testing.T) {
	inner := frameWAL(t)
	// outer renders a frame around arbitrary fields, outer checksum correct.
	outer := func(body string) []byte {
		return []byte(fmt.Sprintf("#r1 %08x %s\n", crc32.ChecksumIEEE([]byte(body)), body))
	}
	walOf := func(payload string) string {
		return fmt.Sprintf("#w1 %08x %s", crc32.ChecksumIEEE([]byte(payload)), payload)
	}
	good := appendFrame(nil, 1, 1, "sessions", inner)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 1
	refused := []struct {
		name string
		body []byte
	}{
		{"bad outer crc", flipped},
		{"bad inner crc", appendFrame(nil, 1, 1, "sessions", []byte(`#w1 deadbeef {"op":"put","id":"x","doc":{"_id":"x"}}`))},
		{"inner cut short", appendFrame(nil, 1, 1, "sessions", inner[:len(inner)-1])},
		{"wrong epoch", appendFrame(nil, 2, 1, "sessions", inner)},
		{"invalid collection", appendFrame(nil, 1, 1, "../evil", inner)},
		{"empty collection", outer("00000001 0000000000000001  " + string(inner))},
		{"inner with a newline", appendFrame(nil, 1, 1, "sessions", append(append(append([]byte(nil), inner...), '\n'), inner...))},
		{"inner unframed", appendFrame(nil, 1, 1, "sessions", []byte(`{"op":"put","id":"x","doc":{"_id":"x"}}`))},
		{"inner unknown op", appendFrame(nil, 1, 1, "sessions", []byte(walOf(`{"op":"explode","id":"x"}`)))},
		{"inner put without doc", appendFrame(nil, 1, 1, "sessions", []byte(walOf(`{"op":"put","id":"x"}`)))},
		{"inner number out of range", appendFrame(nil, 1, 1, "sessions", []byte(walOf(`{"op":"put","id":"x","doc":{"v":1e999}}`)))},
		{"inner not json", appendFrame(nil, 1, 1, "sessions", []byte(walOf(`{"op":"put","id":"x","doc":{"v":}}`)))},
		{"epoch not hex", outer("0000000g 0000000000000001 sessions " + string(inner))},
		{"epoch signed", outer("+0000001 0000000000000001 sessions " + string(inner))},
		{"seq empty", outer("00000001  sessions " + string(inner))},
		{"seq past 64 bits", outer("00000001 10000000000000000 sessions " + string(inner))},
		{"three fields", outer("00000001 0000000000000001 sessions")},
		{"truncated", []byte("#r1 0000")},
		{"no magic", inner},
		{"one bad line after a good one", append(append([]byte(nil), good...), appendFrame(nil, 1, 2, "sessions", []byte(`#w1 deadbeef {}`))...)},
	}
	dir := t.TempDir()
	f, ts := newFollower(t, dir)
	for _, c := range refused {
		if got := postFrames(t, ts.URL, "1", c.body); got != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", c.name, got)
		}
		if wals, _ := filepath.Glob(filepath.Join(dir, "*.jsonl")); len(wals) != 0 || f.AckedSeq() != 0 {
			t.Fatalf("%s: appended %v, position %d", c.name, wals, f.AckedSeq())
		}
	}
	// What strconv.ParseUint took in a header field is still taken: either
	// case, and leading zeros past the printed width.
	spelled := outer("0000000000000001 00000000000000000000A sessions " + string(inner))
	if got := postFrames(t, ts.URL, "1", spelled); got != http.StatusOK || f.AckedSeq() != 10 {
		t.Fatalf("a genuine frame after the refusals: HTTP %d, position %d", got, f.AckedSeq())
	}
	data, err := store.OSFileSystem{}.ReadFile(store.WALPath(dir, "sessions"))
	if err != nil || !bytes.Equal(bytes.TrimSpace(data), inner) {
		t.Fatalf("follower WAL = %q, %v: want the one shipped line", data, err)
	}
}

func TestFollowerRequestsWithMissingEpoch(t *testing.T) {
	_, ts := newFollower(t, t.TempDir())
	resp, err := http.Post(ts.URL+PathFrames, "text/plain", bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing epoch header got HTTP %d, want 400", resp.StatusCode)
	}
}
