package replica

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/store"
)

// The model-based test of store + replica: a seeded random schedule of
// writes, link trouble, follower stops and disk faults, primary restarts at
// the same epoch and a promotion with a zombie primary, run against a real
// replicated pair and checked against an in-memory reference.
//
// Checked after every step:
//
//   - every frame the primary counts as acknowledged, and — while the
//     stream is steady — every frame at or below the follower's own reported
//     position, is a line in the follower's WAL files on disk;
//   - the follower's position is never beyond the last sequence number the
//     primary has assigned while the stream is steady;
//   - the follower's epoch never decreases, across reopen included;
//   - Primary.Lag never exceeds the number of WAL records written.
//
// Checked at the end: every write acknowledged under AckFollower holds on
// whichever node serves (its last acknowledged value, or a later attempt
// that was never acknowledged — replication is at-least-once); a zombie
// primary acknowledges nothing after the promotion; and after a quiesce the
// promoted store equals the primary's directory replayed.
//
// The schedule (which operation at which step, with which parameters) is a
// function of the seed alone: every step draws the same number of values
// whatever happened before. Outcomes under link chaos also depend on how
// the primary's background loop interleaves with the schedule, so a replay
// walks the same schedule, not necessarily the same acknowledgements.
var (
	modelSeed = flag.Int64("model.seed", 0, "replay one seed of the store+replica model test")
	modelLen  = flag.Int("model.steps", modelSteps, "steps per seed of the store+replica model test")
	modelRuns = flag.Int("model.runs", 0, "randomized seeds to run in TestModelRandomized (0: skip)")
)

// modelSeeds is the tier-1 list. At the commit before this test existed
// every one of them fails: 1, 5, 11 and 13 on a primary restarted at its
// old epoch believing the follower's old position (Lag wraps), 2, 3, 8 and
// 21 on a buffer overflow in a steady stream shipping past the gap.
var modelSeeds = []int64{1, 2, 3, 5, 8, 11, 13, 21}

const modelSteps = 70

func TestModelReplicatedPair(t *testing.T) {
	seeds := modelSeeds
	if *modelSeed != 0 {
		seeds = []int64{*modelSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel() // a run mostly waits out ship timeouts
			runModel(t, seed, *modelLen)
		})
	}
}

// TestModelRandomized is the long run `make chaos` asks for with
// -model.runs; every failure names the seed to replay.
func TestModelRandomized(t *testing.T) {
	if *modelRuns <= 0 {
		t.Skip("set -model.runs to run randomized seeds")
	}
	base := time.Now().UnixNano()
	for i := 0; i < *modelRuns; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel() // a run mostly waits out ship timeouts
			runModel(t, seed, *modelLen)
		})
	}
}

var modelCollections = []string{"sessions", "tests"}

// refValue is the state of one document: present with a value, or absent.
type refValue struct {
	present bool
	v       string
}

// refEntry is what the reference knows of one document: the state the last
// acknowledged write left, and the states of the attempts since then that
// were not acknowledged (each may or may not have reached a log).
type refEntry struct {
	acked refValue
	maybe []refValue
}

// modelLink is the replication link of one primary incarnation, over the
// world's netsim.Link to the standby.
type modelLink struct {
	mu       sync.Mutex
	mode     int // linkUp, linkDown, linkLossy
	rng      *rand.Rand
	net      *netsim.Link
	chaos    *netsim.ChaosTransport
	inflight sync.WaitGroup
}

const (
	linkUp = iota
	linkDown
	linkLossy // requests dropped or answered 5xx before they arrive, replies lost after
)

func newModelLink(seed int64, net *netsim.Link) *modelLink {
	chaos, err := netsim.NewChaosTransport(net, netsim.ChaosConfig{DropRate: 0.2, FaultRate: 0.15}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return &modelLink{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), net: net, chaos: chaos}
}

func (l *modelLink) set(mode int) {
	l.mu.Lock()
	l.mode = mode
	l.mu.Unlock()
}

// kill takes the link down for good and waits for what is on it: the
// process that owned it is gone, and nothing of it arrives later.
func (l *modelLink) kill() {
	l.set(linkDown)
	l.inflight.Wait()
}

func (l *modelLink) RoundTrip(req *http.Request) (*http.Response, error) {
	l.mu.Lock()
	mode := l.mode
	loseReply := mode == linkLossy && l.rng.Float64() < 0.2
	if mode != linkDown {
		l.inflight.Add(1)
		defer l.inflight.Done()
	}
	l.mu.Unlock()
	switch mode {
	case linkDown:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("model: link down")
	case linkLossy:
		resp, err := l.chaos.RoundTrip(req)
		if err == nil && loseReply {
			resp.Body.Close()
			return nil, errors.New("model: reply lost")
		}
		return resp, err
	}
	return l.net.RoundTrip(req)
}

// followerGate is the standby's host on the link: the follower behind it
// can be swapped between requests, as a restarted process would be.
type followerGate struct {
	mu sync.RWMutex
	f  *Follower
}

func (g *followerGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.f.ServeHTTP(w, r)
}

// mirrorFrame is one frame as the primary numbered it.
type mirrorFrame struct {
	collection string
	line       string
}

// mirrorShipper sits between the store and the primary and writes down
// which sequence number each WAL line is about to get. The schedule is one
// goroutine, so reading the primary's counter before Ship is exact.
type mirrorShipper struct {
	w *modelWorld
	p *Primary
}

func (m mirrorShipper) Ship(collection string, frames []byte, records int) error {
	m.p.mu.Lock()
	seq, fenced := m.p.seq, m.p.state == stateFenced
	m.p.mu.Unlock()
	if !fenced {
		for _, line := range bytes.Split(bytes.TrimSpace(frames), []byte("\n")) {
			seq++
			m.w.mirror[seq] = mirrorFrame{collection, string(line)}
		}
	}
	m.w.issued += uint64(records)
	return m.p.Ship(collection, frames, records)
}

type modelWorld struct {
	t     *testing.T
	seed  int64
	steps int
	step  int
	trace []string

	pdir, fdir string
	gate       *followerGate
	net        *netsim.Link
	standbyURL string
	ffs        *store.FaultFS
	link       *modelLink
	db         *store.DB
	prim       *Primary
	maxBuffer  int

	mirror   map[uint64]mirrorFrame // this incarnation's numbering
	issued   uint64                 // WAL records written, all incarnations
	ref      map[string]*refEntry   // "collection/id"
	nextID   int
	maxEpoch uint64
}

func (w *modelWorld) failf(format string, args ...any) {
	w.t.Helper()
	for _, line := range w.trace {
		w.t.Log(line)
	}
	w.t.Fatalf("seed %d step %d: %s\nreplay: go test ./internal/replica/ -run 'TestModelReplicatedPair' -model.seed=%d -model.steps=%d",
		w.seed, w.step, fmt.Sprintf(format, args...), w.seed, w.steps)
}

func (w *modelWorld) logf(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf("  step %2d: ", w.step)+fmt.Sprintf(format, args...))
}

func (w *modelWorld) follower() *Follower {
	w.gate.mu.RLock()
	defer w.gate.mu.RUnlock()
	return w.gate.f
}

func (w *modelWorld) openFollower() *Follower {
	f, err := NewFollower(FollowerConfig{Dir: w.fdir, FS: w.ffs})
	if err != nil {
		w.failf("NewFollower: %v", err)
	}
	return f
}

// openPrimary starts a primary incarnation over pdir, always at epoch 1.
func (w *modelWorld) openPrimary() {
	w.link = newModelLink(w.seed+int64(w.step), w.net)
	p, err := NewPrimary(PrimaryConfig{
		FollowerURL:   w.standbyURL,
		Epoch:         1,
		Transport:     w.link,
		ShipTimeout:   40 * time.Millisecond,
		RetryInterval: time.Millisecond,
		MaxBuffer:     w.maxBuffer,
	})
	if err != nil {
		w.failf("NewPrimary: %v", err)
	}
	w.mirror = make(map[uint64]mirrorFrame)
	db, err := store.OpenBackend(store.Replicated(w.pdir, mirrorShipper{w, p}), store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		w.failf("OpenBackend: %v", err)
	}
	p.Bind(db)
	w.db, w.prim = db, p
}

// closePrimary is a primary process going away: its loop stops, nothing of
// it is left on the link, its store closes.
func (w *modelWorld) closePrimary() {
	w.prim.Close()
	w.link.kill()
	w.db.Close()
}

func runModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	w := &modelWorld{
		t: t, seed: seed, steps: steps,
		pdir: t.TempDir(), fdir: t.TempDir(),
		ffs: store.NewFaultFS(),
		ref: make(map[string]*refEntry),
	}
	// A small buffer makes overflow, and with it snapshot catch-up in the
	// middle of a stream, part of half the runs.
	if rng.Intn(2) == 0 {
		w.maxBuffer = 4
	}
	promoteAt := -1 // quiesce at the end
	if rng.Intn(2) == 0 {
		promoteAt = steps/2 + rng.Intn(steps/2)
	}
	w.gate = &followerGate{}
	w.gate.f = w.openFollower()
	w.net = &netsim.Link{}
	w.standbyURL = w.net.Serve("standby", w.gate)
	defer w.net.Close()
	w.openPrimary()
	defer func() { w.closePrimary() }()

	for w.step = 1; w.step <= steps; w.step++ {
		// The same four draws every step, so the schedule does not depend on
		// what the steps before it did.
		kind, pick, param, coll := rng.Intn(100), rng.Intn(1<<30), rng.Intn(1<<30), modelCollections[rng.Intn(len(modelCollections))]
		if w.step == promoteAt {
			w.promoteUnderZombie(pick)
			return
		}
		switch {
		case kind < 24:
			w.insert(coll)
		case kind < 40:
			w.update(coll, pick)
		case kind < 48:
			w.remove(coll, pick)
		case kind < 60:
			w.batch(coll, 2+param%5)
		case kind < 64:
			w.logf("link down")
			w.link.set(linkDown)
		case kind < 72:
			w.logf("link up")
			w.link.set(linkUp)
		case kind < 77:
			w.logf("link lossy")
			w.link.set(linkLossy)
		case kind < 81:
			w.abandonFollower()
		case kind < 85:
			w.closeFollower()
		case kind < 90:
			w.armFault(pick, param)
		case kind < 95:
			w.logf("disk healthy")
			w.ffs.Reset()
		default:
			w.logf("primary restarts at epoch 1")
			w.closePrimary()
			w.openPrimary()
		}
		w.check()
	}
	w.quiesce()
}

// write records the outcome of one attempted write per document.
func (w *modelWorld) write(coll, id string, to refValue, err error) {
	key := coll + "/" + id
	e := w.ref[key]
	if e == nil {
		e = &refEntry{}
		w.ref[key] = e
	}
	if err != nil {
		e.maybe = append(e.maybe, to)
		return
	}
	e.acked, e.maybe = to, nil
}

func (w *modelWorld) newDoc(coll string) (string, store.Document, refValue) {
	w.nextID++
	id := fmt.Sprintf("d%03d", w.nextID)
	v := fmt.Sprintf("%d/%d/%s", w.seed, w.step, id)
	return id, store.Document{"_id": id, "v": v}, refValue{true, v}
}

// liveID picks an id the primary currently serves ("" when it has none).
// Which operation is possible is read off the live store — as a client
// would — not off the reference: after a restart the primary also serves
// records it never acknowledged.
func (w *modelWorld) liveID(coll string, pick int) string {
	docs := w.db.Collection(coll).Find(nil)
	if len(docs) == 0 {
		return ""
	}
	return docs[pick%len(docs)].ID()
}

func (w *modelWorld) insert(coll string) {
	id, doc, to := w.newDoc(coll)
	_, err := w.db.Collection(coll).InsertUnique(doc)
	w.logf("insert %s/%s: %v", coll, id, err)
	w.write(coll, id, to, err)
}

func (w *modelWorld) update(coll string, pick int) {
	id := w.liveID(coll, pick)
	if id == "" {
		w.insert(coll)
		return
	}
	v := fmt.Sprintf("%d/%d/%s/u", w.seed, w.step, id)
	_, err := w.db.Collection(coll).Insert(store.Document{"_id": id, "v": v})
	w.logf("update %s/%s: %v", coll, id, err)
	w.write(coll, id, refValue{true, v}, err)
}

func (w *modelWorld) remove(coll string, pick int) {
	id := w.liveID(coll, pick)
	if id == "" {
		w.insert(coll)
		return
	}
	err := w.db.Collection(coll).Delete(id)
	w.logf("delete %s/%s: %v", coll, id, err)
	w.write(coll, id, refValue{}, err)
}

func (w *modelWorld) batch(coll string, n int) {
	docs := make([]store.Document, n)
	ids := make([]string, n)
	tos := make([]refValue, n)
	for i := range docs {
		ids[i], docs[i], tos[i] = w.newDoc(coll)
	}
	_, errs := w.db.Collection(coll).InsertUniqueBatch(docs)
	w.logf("batch %s/%s..%s: %v", coll, ids[0], ids[n-1], errs[0])
	for i := range docs {
		w.write(coll, ids[i], tos[i], errs[i])
	}
}

// abandonFollower is the standby process dying between two requests: no
// Close, no position save; the descriptors go with the process.
func (w *modelWorld) abandonFollower() {
	w.gate.mu.Lock()
	defer w.gate.mu.Unlock()
	old := w.gate.f
	old.mu.Lock()
	for _, wf := range old.wals {
		wf.Close()
	}
	old.mu.Unlock()
	reborn := w.openFollower()
	w.logf("follower abandoned at epoch %d position %d, reopened at %d/%d", old.Epoch(), old.AckedSeq(), reborn.Epoch(), reborn.AckedSeq())
	// Not "==": an adoption whose save failed at the directory sync was
	// refused and rolled back in memory, and the renamed file may still be
	// what the disk holds. A higher fence than promised is safe.
	if reborn.Epoch() < old.Epoch() {
		w.failf("abandoned follower reopened at epoch %d, had adopted %d", reborn.Epoch(), old.Epoch())
	}
	if reborn.AckedSeq() > old.AckedSeq() {
		w.failf("abandoned follower reopened at position %d, ahead of the %d it had applied", reborn.AckedSeq(), old.AckedSeq())
	}
	w.gate.f = reborn
}

// closeFollower is the standby's graceful restart.
func (w *modelWorld) closeFollower() {
	w.gate.mu.Lock()
	defer w.gate.mu.Unlock()
	old := w.gate.f
	epoch, pos := old.Epoch(), old.AckedSeq()
	err := old.Close()
	reborn := w.openFollower()
	w.logf("follower closed (%v) at %d/%d, reopened at %d/%d", err, epoch, pos, reborn.Epoch(), reborn.AckedSeq())
	if reborn.Epoch() < epoch || (err == nil && reborn.Epoch() != epoch) {
		w.failf("closed follower (%v) reopened at epoch %d, want %d", err, reborn.Epoch(), epoch)
	}
	if err == nil && reborn.AckedSeq() != pos {
		w.failf("closed follower reopened at position %d, want %d", reborn.AckedSeq(), pos)
	}
	if reborn.AckedSeq() > pos {
		w.failf("closed follower reopened at position %d, ahead of %d", reborn.AckedSeq(), pos)
	}
	w.gate.f = reborn
}

func (w *modelWorld) armFault(pick, param int) {
	switch pick % 3 {
	case 0:
		w.logf("follower disk: ENOSPC after %d bytes", param%300)
		w.ffs.FailAppendsAfter(int64(param%300), nil, false)
	case 1:
		w.logf("follower disk: torn write after %d bytes", param%300)
		w.ffs.FailAppendsAfter(int64(param%300), nil, true)
	default:
		w.logf("follower disk: directory syncs fail")
		w.ffs.FailDirSync(nil)
	}
}

// followerLines reads the follower's WAL files as the disk holds them.
func (w *modelWorld) followerLines() map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, coll := range modelCollections {
		set := make(map[string]bool)
		data, err := os.ReadFile(store.WALPath(w.fdir, coll))
		if err != nil && !os.IsNotExist(err) {
			w.failf("reading follower WAL: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			set[line] = true
		}
		out[coll] = set
	}
	return out
}

// check holds the per-step invariants.
func (w *modelWorld) check() {
	// Between two requests: a snapshot being written is not a state of the
	// follower's disk anyone could be left with.
	w.gate.mu.Lock()
	defer w.gate.mu.Unlock()
	f := w.gate.f
	if e := f.Epoch(); e < w.maxEpoch {
		w.failf("follower epoch went from %d to %d", w.maxEpoch, e)
	} else {
		w.maxEpoch = e
	}
	if lag, _ := w.prim.Lag(); lag > w.issued {
		w.failf("Primary.Lag() = %d frames after %d records written", lag, w.issued)
	}
	// Read the follower before the primary: positions only grow, so the
	// primary's counters bound what the follower said a moment earlier.
	pos := f.AckedSeq()
	w.prim.mu.Lock()
	state, acked, seq := w.prim.state, w.prim.acked, w.prim.seq
	w.prim.mu.Unlock()
	held := acked
	if state == stateSteady {
		if pos > seq {
			w.failf("stream steady with the follower at position %d; only %d sequence numbers assigned", pos, seq)
		}
		if pos > held {
			held = pos
		}
	}
	lines := w.followerLines()
	for s, fr := range w.mirror {
		if s <= held && !lines[fr.collection][fr.line] {
			w.failf("frame %d (%s) counts as held by the follower (primary acked %d, follower position %d, %s) but is not in its WAL: %s",
				s, fr.collection, acked, pos, state, fr.line)
		}
	}
}

// verify checks the reference against the node that serves.
func (w *modelWorld) verify(serving *store.DB, who string) {
	for key, e := range w.ref {
		coll, id, _ := strings.Cut(key, "/")
		var got refValue
		if doc, err := serving.Collection(coll).Get(id); err == nil {
			got.present = true
			got.v, _ = doc["v"].(string)
		} else if !errors.Is(err, store.ErrNotFound) {
			w.failf("%s: reading %s: %v", who, key, err)
		}
		ok := got == e.acked
		for _, m := range e.maybe {
			ok = ok || got == m
		}
		if !ok {
			w.failf("%s serves %s as %+v; last acknowledged %+v, unacknowledged since %+v", who, key, got, e.acked, e.maybe)
		}
	}
}

// promote fails the standby over (on a healthy disk: promotion under a
// failing one is refused, which TestFollowerSaveFailures covers).
func (w *modelWorld) promote() *store.DB {
	w.ffs.Reset()
	before := w.follower().Epoch()
	db, epoch, err := w.follower().Promote(store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		w.failf("Promote: %v", err)
	}
	if epoch <= before {
		w.failf("promotion moved the epoch from %d to %d", before, epoch)
	}
	return db
}

// promoteUnderZombie promotes mid-stream, with whatever was in flight, and
// keeps the deposed primary writing.
func (w *modelWorld) promoteUnderZombie(pick int) {
	w.logf("promote; the old primary keeps writing")
	promoted := w.promote()
	defer promoted.Close()
	if pick%2 == 0 {
		w.link.set(linkUp)
	}
	for i := 0; i < 3; i++ {
		id, doc, _ := w.newDoc("sessions")
		if _, err := w.db.Collection("sessions").InsertUnique(doc); err == nil {
			w.failf("zombie primary acknowledged %s after the promotion", id)
		}
	}
	w.verify(promoted, "promoted follower")
}

// quiesce heals everything, lets the stream drain, and compares the two
// directories.
func (w *modelWorld) quiesce() {
	w.logf("quiesce")
	w.ffs.Reset()
	w.link.set(linkUp)
	// A barrier can outlast the ship timeout while the stream reconnects;
	// it is asked again once the stream is steady.
	for {
		waitState(w.prim, stateSteady)
		if w.prim.Barrier() == nil {
			break
		}
	}
	w.check()
	w.closePrimary()
	promoted := w.promote()
	defer promoted.Close()
	w.verify(promoted, "promoted follower")
	replayed, err := store.Open(w.pdir)
	if err != nil {
		w.failf("reopening the primary's directory: %v", err)
	}
	w.db = replayed // closed by runModel's closePrimary
	w.verify(replayed, "restarted primary")
	for _, coll := range modelCollections {
		if got, want := docsOf(w.t, promoted, coll), docsOf(w.t, replayed, coll); !reflect.DeepEqual(got, want) {
			w.failf("after quiesce the promoted store's %s differ from the primary's:\n got %v\nwant %v", coll, got, want)
		}
	}
}
