package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/earlystop"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// balancedBatch renders n sessions whose answers alternate left/right, so
// the sequential engine folds every one and never decides.
func balancedBatch(t *testing.T, prep *aggregator.Prepared, prefix string, n int) []byte {
	t.Helper()
	uploads := make([]SessionUpload, n)
	for i := range uploads {
		choice := questionnaire.ChoiceLeft
		if i%2 == 1 {
			choice = questionnaire.ChoiceRight
		}
		uploads[i] = sampleUpload(prep, fmt.Sprintf("%s%03d", prefix, i), choice)
	}
	return marshalBatch(t, uploads)
}

// InsertUniqueNoted commits a whole chunk and only then notifies, so a
// replay of storage that runs while the chunk's events are still pending
// has already folded every one of them: the events are replays, not
// overwrites. Treating "known id" as "overwrite, rebuild" made a batch
// quadratic. Here the replay is forced at the worst moment — inside the
// chunk's first change event, before the server's own hook sees it.
func TestBatchEventsAfterReplayAreIgnored(t *testing.T) {
	db, blobs := store.OpenMemory(), store.NewBlobStore()
	var srv *Server
	first := true
	db.Collection(aggregator.ResponsesCollection).OnChange(func(_, id string, _ any) {
		if !first {
			return
		}
		first = false
		srv.folds.drop("srv-test")
		entry, err := srv.load("srv-test")
		if err == nil {
			_, err = srv.folds.results("srv-test", entry, false)
		}
		if err != nil {
			t.Errorf("replay inside the change feed: %v", err)
		}
	})
	srv, prep := prepTestOn(t, db, blobs, "srv-test", WithEarlyStop(EarlyStopConfig{Alpha: 0.05}))

	const n = 100
	rec, report := postBatch(t, srv, balancedBatch(t, prep, "w", n), false)
	if rec.Code != http.StatusOK || report.Accepted != n {
		t.Fatalf("batch: status %d, report %+v", rec.Code, report)
	}
	f := srv.folds
	if got := f.rebuilds.Load(); got != 1 {
		t.Errorf("kscope_accum_rebuilds_total = %d, want 1 (the forced replay, and none after it)", got)
	}
	if got := f.folds.Load(); got != n {
		t.Errorf("kscope_earlystop_folds_total = %d, want %d (every session exactly once)", got, n)
	}
	if got := f.applied.Load(); got != 0 {
		t.Errorf("kscope_accum_applied_total = %d, want 0 (every event was a replay)", got)
	}
	if got := f.sessions.Load(); got != n {
		t.Errorf("kscope_accum_sessions = %d, want %d", got, n)
	}

	// A second batch finds live state that owes storage nothing: no replay,
	// one fold per session, all of them from the write path.
	rec, report = postBatch(t, srv, balancedBatch(t, prep, "x", n), false)
	if rec.Code != http.StatusOK || report.Accepted != n {
		t.Fatalf("second batch: status %d, report %+v", rec.Code, report)
	}
	if r, fo, a := f.rebuilds.Load(), f.folds.Load(), f.applied.Load(); r != 1 || fo != 2*n || a != n {
		t.Errorf("after a second batch: rebuilds %d folds %d applied %d, want 1 %d %d", r, fo, a, 2*n, n)
	}
	assertServedEqualsOracle(t, srv, "srv-test")
}

// A node that was never asked for a test's results and runs no engine has
// no fold state for it: uploads extract nothing and retain nothing.
func TestNoStateUntilResultsAreAsked(t *testing.T) {
	srv, prep := prepTest(t)
	if rec, report := postBatch(t, srv, balancedBatch(t, prep, "w", 10), false); rec.Code != http.StatusOK || report.Accepted != 10 {
		t.Fatalf("batch: status %d, report %+v", rec.Code, report)
	}
	if _, ok := srv.folds.tests.Load("srv-test"); ok {
		t.Fatal("uploads alone created fold state on a server without early stopping")
	}
	assertServedEqualsOracle(t, srv, "srv-test")
	if rec, report := postBatch(t, srv, balancedBatch(t, prep, "x", 10), false); rec.Code != http.StatusOK || report.Accepted != 10 {
		t.Fatalf("second batch: status %d, report %+v", rec.Code, report)
	}
	if r, a := srv.folds.rebuilds.Load(), srv.folds.applied.Load(); r != 1 || a != 10 {
		t.Errorf("rebuilds %d applied %d, want 1 and 10 (the second batch feeds live state)", r, a)
	}
	assertServedEqualsOracle(t, srv, "srv-test")
}

// prepTestOn is prepTest over given storage and under a given test id.
func prepTestOn(t testing.TB, db *store.DB, blobs *store.BlobStore, testID string, opts ...Option) (*Server, *aggregator.Prepared) {
	t.Helper()
	prep := prepareOn(t, db, blobs, testID)
	srv, err := New(db, blobs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, prep
}

func prepareOn(t testing.TB, db *store.DB, blobs *store.BlobStore, testID string) *aggregator.Prepared {
	t.Helper()
	prep, err := prepare(db, blobs, testID)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// prepare runs the delete fixture's two-version test through the
// aggregator under the given id.
func prepare(db *store.DB, blobs *store.BlobStore, testID string) (*aggregator.Prepared, error) {
	return prepareAsking(db, blobs, testID, 1)
}

// prepareAsking is prepare with the given number of questions. Prepare
// upserts, so over a prepared test it re-prepares it in place.
func prepareAsking(db *store.DB, blobs *store.BlobStore, testID string, questions int) (*aggregator.Prepared, error) {
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		return nil, err
	}
	test := deleteFixtureTest()
	test.TestID = testID
	test.Questions = nil
	for i := 0; i < questions; i++ {
		test.Questions = append(test.Questions, fmt.Sprintf("Question %d?", i+1))
	}
	return agg.Prepare(test, deleteFixtureSites(), nil)
}

// servedResults fetches one results payload over the HTTP surface.
func servedResults(srv *Server, testID string, useQC bool) (*Results, error) {
	path := "/api/tests/" + testID + "/results"
	if useQC {
		path += "?quality=1"
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	var res Results
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// servedEqualsOracle compares raw and quality-controlled served results
// with ConcludeScratch.
func servedEqualsOracle(srv *Server, testID string) error {
	for _, useQC := range []bool{false, true} {
		got, err := servedResults(srv, testID, useQC)
		if err != nil {
			return err
		}
		want, err := srv.ConcludeScratch(testID, useQC)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s (quality=%v): served %+v, oracle %+v", testID, useQC, got, want)
		}
	}
	return nil
}

func assertServedEqualsOracle(t *testing.T, srv *Server, testID string) {
	t.Helper()
	if err := servedEqualsOracle(srv, testID); err != nil {
		t.Fatal(err)
	}
}

// foldSnapshot is a fold state's content in comparable form. The engine is
// reduced to what must not depend on arrival order — its stream count,
// sessions folded and decisive votes per stream; the running e-value maxima
// and the latch time may legitimately differ between arrival order and a
// document-id replay.
type foldSnapshot struct {
	Order    []string
	State    *FoldState
	Raw      []PageResult
	Engine   bool
	Family   int
	Sessions int
	Streams  map[earlystop.StreamKey][2]int
}

// snapshot captures a test's state, or nil while it is lazy.
func (f *foldTable) snapshot(testID string) *foldSnapshot {
	st := f.lock(testID, nil, false)
	if st == nil {
		return nil
	}
	defer st.mu.Unlock()
	if !st.live {
		return nil
	}
	snap := &foldSnapshot{
		Order:  slices.Clone(st.order),
		State:  st.snapshot(),
		Raw:    slices.Clone(st.raw),
		Engine: st.engine != nil,
	}
	if st.engine != nil {
		snap.Family = st.engine.Config().Streams
		snap.Sessions = st.engine.Sessions()
		snap.Streams = make(map[earlystop.StreamKey][2]int)
		for _, key := range st.engine.Streams() {
			left, right := st.engine.Tally(key)
			snap.Streams[key] = [2]int{left, right}
		}
	}
	return snap
}

var (
	foldSeed = flag.Int64("fold.seed", 0, "replay one seed of TestWriteFedStateEqualsReplay (0: the built-in seed)")
	foldRuns = flag.Int("fold.runs", 0, "fresh seeds TestWriteFedStateEqualsReplay runs after the built-in one")
)

// TestWriteFedStateEqualsReplay is the differential for the write-path
// seam: seeded random interleavings of single uploads, batches split across
// chunks, duplicate re-sends, a direct-store delete and overwrite, whole
// test deletion, a re-prepare in place with another question count, an
// entry rebuilt unchanged, and a fresh Server over the same store — on two
// tests at once, one goroutine each, under -race. After every step the
// state the write path fed equals a state replayed from storage, and served
// raw and quality-controlled results equal ConcludeScratch. The engine's
// alpha is far too small to decide on this crowd, so its counts stay
// comparable. Seed s walks the two tests with seeds s and s+1; -fold.runs
// adds fresh seeds and -fold.seed replays one.
func TestWriteFedStateEqualsReplay(t *testing.T) {
	defer func(old int) { batchChunkSize = old }(batchChunkSize)
	batchChunkSize = 4

	seeds := []int64{7}
	if *foldSeed != 0 {
		seeds = []int64{*foldSeed}
	}
	base := time.Now().UnixNano()
	for i := 0; i < *foldRuns; i++ {
		seeds = append(seeds, base+2*int64(i))
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"lazy", nil},
		{"engine", []Option{WithEarlyStop(EarlyStopConfig{Alpha: 1e-9})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { foldWalks(t, seed, tc.opts) })
			}
		})
	}
}

// foldWalks runs the two walks of one seed on a fresh store.
func foldWalks(t *testing.T, seed int64, opts []Option) {
	db, blobs := store.OpenMemory(), store.NewBlobStore()
	tests := []string{"fold-a", "fold-b"}
	preps := make([]*aggregator.Prepared, len(tests))
	for i, id := range tests {
		preps[i] = prepareOn(t, db, blobs, id)
	}
	srv, err := New(db, blobs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range tests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &foldWalk{
				db: db, blobs: blobs, opts: opts, srv: srv,
				testID: tests[i], prep: preps[i], rng: rand.New(rand.NewSource(seed + int64(i))),
			}
			for step := 0; step < 120; step++ {
				if err := w.step(); err != nil {
					t.Errorf("%s step %d (seed %d): %v\nreplay: go test ./internal/server -run '^TestWriteFedStateEqualsReplay$' -fold.seed=%d",
						w.testID, step, seed+int64(i), err, seed)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// foldWalk is one goroutine's random walk over one test.
type foldWalk struct {
	db     *store.DB
	blobs  *store.BlobStore
	opts   []Option
	srv    *Server // the server this walk currently talks to
	testID string
	prep   *aggregator.Prepared
	rng    *rand.Rand
	stored []string // worker ids known to be stored
	next   int
}

func (w *foldWalk) newWorker() string {
	w.next++
	// Ids drawn out of order, so write-path arrival order is not
	// document-id order.
	return fmt.Sprintf("w%04d-%d", w.rng.Intn(10000), w.next)
}

func (w *foldWalk) post(path string, body any) (int, []byte) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	w.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/tests/"+w.testID+path, bytes.NewReader(payload)))
	return rec.Code, rec.Body.Bytes()
}

func (w *foldWalk) step() error {
	coll := w.db.Collection(aggregator.ResponsesCollection)
	switch op := w.rng.Intn(100); {
	case op < 40: // single upload
		worker := w.newWorker()
		if code, body := w.post("/sessions", randomUpload(w.prep, worker, w.rng)); code != http.StatusCreated {
			return fmt.Errorf("upload = %d: %s", code, body)
		}
		w.stored = append(w.stored, worker)
	case op < 63: // batch, split across chunks, with re-sent workers mixed in
		var uploads []SessionUpload
		fresh := 0
		for i, n := 0, 1+w.rng.Intn(10); i < n; i++ {
			worker := w.newWorker()
			if len(w.stored) > 0 && w.rng.Intn(4) == 0 {
				worker = w.stored[w.rng.Intn(len(w.stored))]
			} else {
				w.stored = append(w.stored, worker)
				fresh++
			}
			uploads = append(uploads, randomUpload(w.prep, worker, w.rng))
		}
		code, body := w.post("/sessions:batch", uploads)
		var report BatchReport
		if err := json.Unmarshal(body, &report); err != nil || code != http.StatusOK || report.Accepted != fresh {
			return fmt.Errorf("batch = %d, accepted %d of %d fresh: %s", code, report.Accepted, fresh, body)
		}
	case op < 72: // duplicate re-send
		if len(w.stored) == 0 {
			return nil
		}
		worker := w.stored[w.rng.Intn(len(w.stored))]
		if code, body := w.post("/sessions", randomUpload(w.prep, worker, w.rng)); code != http.StatusConflict {
			return fmt.Errorf("re-send = %d: %s", code, body)
		}
	case op < 79: // direct-store overwrite of a stored session
		if len(w.stored) == 0 {
			return nil
		}
		worker := w.stored[w.rng.Intn(len(w.stored))]
		raw, _ := json.Marshal(randomUpload(w.prep, worker, w.rng))
		if _, err := coll.Insert(store.Document{
			store.IDField: w.testID + "/" + worker, "test_id": w.testID, "worker_id": worker, "session": string(raw),
		}); err != nil {
			return err
		}
	case op < 85: // direct-store delete of a stored session
		if len(w.stored) == 0 {
			return nil
		}
		i := w.rng.Intn(len(w.stored))
		if err := coll.Delete(w.testID + "/" + w.stored[i]); err != nil {
			return err
		}
		w.stored = append(w.stored[:i], w.stored[i+1:]...)
	case op < 89: // DELETE the test, then prepare it again
		rec := httptest.NewRecorder()
		w.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/tests/"+w.testID, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("DELETE = %d: %s", rec.Code, rec.Body.String())
		}
		w.stored = nil
		prep, err := prepareAsking(w.db, w.blobs, w.testID, len(w.prep.Test.Questions))
		if err != nil {
			return err
		}
		w.prep = prep
	case op < 93: // re-prepare in place with another question count
		prep, err := prepareAsking(w.db, w.blobs, w.testID, 1+(len(w.prep.Test.Questions)+w.rng.Intn(2))%3)
		if err != nil {
			return err
		}
		w.prep = prep
	case op < 96: // the entry rebuilt, its content unchanged
		w.srv.cache.invalidateTest(w.testID)
	default: // a fresh Server over the same store takes over this walk
		srv, err := New(w.db, w.blobs, w.opts...)
		if err != nil {
			return err
		}
		w.srv = srv
	}
	return w.check()
}

// check compares the walk's server with storage: results against the
// oracle, and — once the state is live — the state against a replay. The
// fold codec reads back what it writes of the state, and of the fold
// document served before, which a lazy state serves too.
func (w *foldWalk) check() error {
	rec := httptest.NewRecorder()
	w.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/tests/"+w.testID+"/fold", nil))
	served, err := DecodeFoldState(rec.Body.Bytes())
	if rec.Code != http.StatusOK || err != nil {
		return fmt.Errorf("fold read = %d (%v): %s", rec.Code, err, rec.Body)
	}
	if err := foldRoundTrip(served); err != nil {
		return err
	}
	if err := servedEqualsOracle(w.srv, w.testID); err != nil {
		return err
	}
	got := w.srv.folds.snapshot(w.testID)
	if got == nil {
		return fmt.Errorf("state is lazy right after serving results")
	}
	if err := foldRoundTrip(got.State); err != nil {
		return err
	}
	replay := &foldTable{early: w.srv.folds.early, responses: w.srv.responses}
	entry, err := w.srv.load(w.testID)
	if err != nil {
		return err
	}
	if _, err := replay.results(w.testID, entry, false); err != nil {
		return err
	}
	if want := replay.snapshot(w.testID); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("write-fed state diverges from a replay of storage:\nwrite-fed %+v\nreplay    %+v", got, want)
	}
	if streams := max(entry.info.realQuestions(), 1); got.Engine && got.Family != streams {
		return fmt.Errorf("the engine tests %d streams, the test has %d", got.Family, streams)
	}
	return nil
}

// foldRoundTrip: scan reads what append writes of fs's document as that
// document, but for an empty awaiting list, which append leaves out.
func foldRoundTrip(fs *FoldState) error {
	want := *fs.doc()
	wire := want.append(nil)
	if len(want.Awaiting) == 0 {
		want.Awaiting = nil
	}
	var got foldDoc
	if err := got.scan(wire); err != nil || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("the fold codec reads back %s as %+v (%v), want %+v", wire, got, err, want)
	}
	return nil
}

// postSessions uploads the sessions one at a time and requires each stored.
func postSessions(t *testing.T, srv *Server, uploads ...SessionUpload) {
	t.Helper()
	for _, up := range uploads {
		payload, _ := json.Marshal(up)
		if rec := doJSON(t, srv, http.MethodPost, "/api/tests/"+up.TestID+"/sessions", payload, nil); rec.Code != http.StatusCreated {
			t.Errorf("upload %s = %d: %s", up.WorkerID, rec.Code, rec.Body.String())
		}
	}
}

// A judgment depends on the test's metadata. An entry rebuilt with nothing
// changed is adopted without a replay; a re-prepare in place with another
// question count re-judges every stored session under the new entry, and
// the engine follows it.
func TestRejudgeOnlyOnMetadataChange(t *testing.T) {
	db, blobs := store.OpenMemory(), store.NewBlobStore()
	srv, prep := prepTestOn(t, db, blobs, "srv-test", WithEarlyStop(EarlyStopConfig{Alpha: 1e-9}))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		postSessions(t, srv, randomUpload(prep, fmt.Sprintf("w%03d", rng.Intn(1000)*10+i), rng))
	}
	assertServedEqualsOracle(t, srv, "srv-test")
	rebuilds := srv.folds.rebuilds.Load()
	srv.cache.invalidateTest("srv-test")
	srv.cache.invalidateAll()
	assertServedEqualsOracle(t, srv, "srv-test")
	if got := srv.folds.rebuilds.Load(); got != rebuilds {
		t.Errorf("kscope_accum_rebuilds_total %d -> %d across an entry rebuilt unchanged", rebuilds, got)
	}

	prep, err := prepareAsking(db, blobs, "srv-test", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		postSessions(t, srv, randomUpload(prep, fmt.Sprintf("x%03d", rng.Intn(1000)*10+i), rng))
	}
	assertServedEqualsOracle(t, srv, "srv-test")
	if got := srv.folds.rebuilds.Load(); got != rebuilds+1 {
		t.Errorf("kscope_accum_rebuilds_total %d -> %d across a re-prepare in place, want one replay", rebuilds, got)
	}
	snap := srv.folds.snapshot("srv-test")
	if snap == nil || snap.Family != 3 || snap.Sessions != 40 || len(snap.State.Awaiting) == 0 {
		t.Fatalf("after the re-prepare: %+v, want the engine over 3 streams and 40 sessions, and workers awaiting the crowd", snap)
	}
}

// Readers copy what they keep: a QC Results the cache holds and a fold
// document stay what they were while later sessions insert before and among
// the workers they list — under -race, with the encoders running beside the
// folds.
func TestSnapshotsNeverAliasLiveState(t *testing.T) {
	for _, questions := range []int{1, 3} { // nobody awaits the crowd; some do
		db, blobs := store.OpenMemory(), store.NewBlobStore()
		prep, err := prepareAsking(db, blobs, "srv-test", questions)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(db, blobs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(questions)))
		for i := 0; i < 40; i++ {
			postSessions(t, srv, randomUpload(prep, fmt.Sprintf("m%03d", 2*i+1), rng))
		}
		if _, err := servedResults(srv, "srv-test", true); err != nil {
			t.Fatal(err)
		}
		res, ok := srv.cache.resultsFor(resultsKey{"srv-test", true})
		if !ok || len(res.KeptWorkers) == 0 {
			t.Fatalf("%d questions: no cached QC results with kept workers (%v)", questions, ok)
		}
		entry, err := srv.load("srv-test")
		if err != nil {
			t.Fatal(err)
		}
		fs, err := srv.folds.state("srv-test", entry)
		if err != nil {
			t.Fatal(err)
		}
		body := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/fold", nil, nil).Body.Bytes()
		resJSON, fsJSON := mustMarshal(t, res), append(mustMarshal(t, fs), '\n')
		if !bytes.Equal(fsJSON, body) || questions > 1 && len(fs.Awaiting) == 0 {
			t.Fatalf("%d questions: fold read %s, served %s", questions, fsJSON, body)
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				worker := fmt.Sprintf("m%03d", 2*i) // among the stored ones
				if i%2 == 1 {
					worker = fmt.Sprintf("a%03d", i) // before all of them
				}
				postSessions(t, srv, randomUpload(prep, worker, rng))
			}
		}()
		for i := 0; i < 20; i++ {
			mustMarshal(t, res)
			mustMarshal(t, fs)
		}
		wg.Wait()
		if got := mustMarshal(t, res); !bytes.Equal(got, resJSON) {
			t.Errorf("%d questions: cached results moved under later folds:\nwas %s\nnow %s", questions, resJSON, got)
		}
		if got := append(mustMarshal(t, fs), '\n'); !bytes.Equal(got, body) {
			t.Errorf("%d questions: a fold read moved under later folds:\nwas %s\nnow %s", questions, body, got)
		}
	}
}

// A cold load that sessions are stored under keeps the entry it assembled:
// a stored session moves the test's results generation, not its metadata's,
// so the next load is a kscope_cache_hits{cache="tests"} hit and parses
// nothing. A metadata change in the same window still wins.
func TestEntryFillSurvivesSessionInserts(t *testing.T) {
	srv, prep := prepTest(t)
	for i := 0; i < 5; i++ {
		srv.cache.invalidateTest("srv-test")
		// load's three steps, an insert between the snapshot and the put.
		gen := srv.cache.testGen("srv-test")
		raw, _ := json.Marshal(sampleUpload(prep, fmt.Sprintf("w%d", i), questionnaire.ChoiceLeft))
		if _, err := srv.responses.InsertUnique(store.Document{
			store.IDField: fmt.Sprintf("srv-test/w%d", i), "test_id": "srv-test", "worker_id": fmt.Sprintf("w%d", i), "session": string(raw),
		}); err != nil {
			t.Fatal(err)
		}
		loaded, err := aggregator.LoadPrepared(srv.db, "srv-test")
		if err != nil {
			t.Fatal(err)
		}
		srv.cache.putTest("srv-test", gen, newTestEntry(loaded))

		hits, misses := srv.cache.testHits.Load(), srv.cache.testMisses.Load()
		if _, err := srv.load("srv-test"); err != nil {
			t.Fatal(err)
		}
		if h, m := srv.cache.testHits.Load(), srv.cache.testMisses.Load(); h != hits+1 || m != misses {
			t.Fatalf("load after a fill that sessions raced: %d hits, %d misses, want %d and %d", h, m, hits+1, misses)
		}
	}
	gen := srv.cache.testGen("srv-test")
	entry, _ := srv.cache.test("srv-test")
	srv.cache.invalidateTest("srv-test")
	srv.cache.putTest("srv-test", gen, entry)
	if _, ok := srv.cache.test("srv-test"); ok {
		t.Error("an entry filled from before a metadata change was cached")
	}
}

// benchShapedBatches prepares tests on db and renders, for each, one batch of
// perTest sessions of the benchmark's shape (two versions, one question, a
// control page), keyed by test id.
func benchShapedBatches(t *testing.T, db *store.DB, blobs *store.BlobStore, tests, perTest int) map[string][]byte {
	t.Helper()
	batches := make(map[string][]byte, tests)
	for i := 0; i < tests; i++ {
		testID := fmt.Sprintf("mem-%02d", i)
		prep := prepareOn(t, db, blobs, testID)
		uploads := make([]SessionUpload, perTest)
		for j := range uploads {
			up := sampleUpload(prep, fmt.Sprintf("bench-%06d", j), benchChoice(j))
			up.TestID = testID
			for k := range up.Responses {
				up.Responses[k].TestID = testID
			}
			uploads[j] = up
		}
		batches[testID] = marshalBatch(t, uploads)
	}
	return batches
}

// postBatches posts every batch through the batch endpoint.
func postBatches(t *testing.T, srv *Server, batches map[string][]byte) {
	t.Helper()
	for testID, body := range batches {
		rec := doJSON(t, srv, http.MethodPost, "/api/tests/"+testID+"/sessions:batch", body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// liveHeap is the heap in use once garbage is collected.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // a pooled object survives one collection
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLiveFoldBytesPerSession holds what live fold state costs a session:
// 20 tests x 200 sessions of the benchmark's shape, fed through the batch
// endpoint with the engine on, then every test dropped to lazy. What the
// drop releases is the fold state; the stored documents, and the ids the
// state shares with them, stay. It was 203 B a session while the state kept
// every session's battery features.
func TestLiveFoldBytesPerSession(t *testing.T) {
	const tests, perTest = 20, 200
	db, blobs := store.OpenMemory(), store.NewBlobStore()
	srv, err := New(db, blobs, WithEarlyStop(EarlyStopConfig{Alpha: 1e-9}))
	if err != nil {
		t.Fatal(err)
	}
	postBatches(t, srv, benchShapedBatches(t, db, blobs, tests, perTest))
	if n, live := srv.folds.sessions.Load(), srv.folds.liveTests.Load(); n != tests*perTest || live != tests {
		t.Fatalf("live state holds %d sessions over %d tests, want %d over %d", n, live, tests*perTest, tests)
	}
	before := liveHeap()
	srv.folds.dropAll()
	released := float64(before-liveHeap()) / (tests * perTest)
	t.Logf("live fold state: %.0f B per session", released)
	if released > 64 {
		t.Errorf("live fold state holds %.0f B per session, want at most 64", released)
	}
	runtime.KeepAlive(srv)
}

// TestStoredBytesPerSession holds what the store keeps for an acknowledged
// session: 20 tests x 200 sessions of the benchmark's shape through the
// batch endpoint of a node with no fold state, the heap measured around the
// inserts. On a memory store the session's own JSON text is 490 B of it; it
// was 1051 B while each document was kept as its map. A dir store keeps that
// text in its WAL: 324 B, where it held 833 B before.
func TestStoredBytesPerSession(t *testing.T) {
	const tests, perTest = 20, 200
	for _, row := range []struct {
		name  string
		open  func(t *testing.T) *store.DB
		limit float64
	}{
		{"memory", func(*testing.T) *store.DB { return store.OpenMemory() }, 820},
		{"dir", func(t *testing.T) *store.DB { return openDir(t, t.TempDir()) }, 353},
	} {
		t.Run(row.name, func(t *testing.T) {
			db, blobs := row.open(t), store.NewBlobStore()
			srv, err := New(db, blobs)
			if err != nil {
				t.Fatal(err)
			}
			batches := benchShapedBatches(t, db, blobs, tests, perTest)
			before := liveHeap()
			postBatches(t, srv, batches)
			held := float64(liveHeap()-before) / (tests * perTest)
			responses := db.Collection(aggregator.ResponsesCollection)
			if n := responses.Count(); n != tests*perTest {
				t.Fatalf("%d sessions stored, want %d", n, tests*perTest)
			}
			t.Logf("stored session: %.0f B", held)
			if held > row.limit {
				t.Errorf("a stored session holds %.0f B, want at most %.0f", held, row.limit)
			}
			if n := responses.Stats().Shapes; n != 1 {
				t.Errorf("the responses collection holds %d key shapes, want 1", n)
			}
			runtime.KeepAlive(srv)
			runtime.KeepAlive(batches)
		})
	}
}
