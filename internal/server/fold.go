package server

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/earlystop"
	"kaleidoscope/internal/jsonscan"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// The fold pipeline: every stored session is decoded once, judged once and
// folded once.
//
// Each test has one record on the node (testFold): its serving entry, its
// fold state with the entry that state was judged under, the sequential
// engine and its latched decision, and the raw and quality-controlled
// Results last served. One mutex guards it all but the entry, which page
// fetches read without it, so they never wait on a replay.
//
// A test's live state is its FoldState (foldstate.go) itself: each session
// is judged by the battery's session-local rules as it is folded, so the
// state keeps the passing worker ids, the answers of those the crowd check
// can still fail, the settled page tallies and the votes — beside the
// node-local sorted session ids, raw page tallies and, with early stopping
// on, the sequential engine and its latched decision. /results, the fold
// document, the decision, the concluded-upload check and the
// kscope_accum_* / kscope_earlystop_* gauges are views over it; readers copy
// what they keep under the record's lock. Installing an entry judges the
// state: an entry that judges sessions alike is adopted, any other drops the
// state to lazy.
//
// The write path feeds it. An upload handler that finds live state for its
// test reduces the session it just validated and scored to a foldNote and
// attaches that to the insert (store.InsertUniqueNoted); the responses
// change hook folds the note, so a session a handler stored is never read
// back or decoded again. Storage goes through the same fold routine for a
// cold start, after a delete, after a put that carried no note, and for a
// lazy test's fold read, which keeps nothing. A replay that fails (a
// corrupt stored session) is not tried again until storage moves in a way
// that could have cured it.
//
// State is live or lazy (nothing retained). With early stopping on, the
// upload handlers make it live before they insert, because the decision
// has to exist by the time the next upload asks; otherwise the first
// /results does, so a node that is never asked for a test's results
// extracts and retains nothing for it.
//
// Freshness is one lock hold: the responses hook folds a session and clears
// the served results under the record's lock, before the insert returns to
// the handler, so an acknowledged session is in every later /results. A
// metadata change clears the entry and the served results the same way. A
// load puts the record in the table before it reads storage, so a metadata
// change that commits after the read finds the record and waits for the
// install, then clears it.

// foldNote is one validated, scored session reduced to the battery's
// features, which the fold judges and then mostly drops.
type foldNote = quality.Features

// reduce extracts a session's battery features, with page, question and
// choice strings swapped for the entry's (or the package's) own copies so
// the answers the state keeps do not pin one small string per answer.
func (e *testEntry) reduce(u *SessionUpload) *foldNote {
	feats := quality.ExtractFeatures(u.workerSession())
	for i := range feats.Responses {
		r := &feats.Responses[i]
		if p, ok := e.pages[r.PageID]; ok {
			r.PageID = e.info.Pages[p].ID
		}
		if q, ok := e.questions[r.QuestionID]; ok {
			r.QuestionID = q
		}
		switch r.Choice {
		case questionnaire.ChoiceLeft:
			r.Choice = questionnaire.ChoiceLeft
		case questionnaire.ChoiceRight:
			r.Choice = questionnaire.ChoiceRight
		case questionnaire.ChoiceSame:
			r.Choice = questionnaire.ChoiceSame
		}
	}
	return &feats
}

// judgesLike reports whether sessions are judged alike under both entries:
// the same page spine (ids, names, real or control) and question count.
func (e *testEntry) judgesLike(o *testEntry) bool {
	return e == o || len(e.info.Questions) == len(o.info.Questions) && slices.Equal(e.info.Pages, o.info.Pages)
}

// testFold is one test's record. Everything of the fold state but the
// decision is dropped when the state goes lazy; the decision is latched for
// the life of the test and only deletion clears it.
type testFold struct {
	mu   sync.Mutex
	gone bool // removed from the table: look the test up again

	// entry is the test's serving entry, nil until loaded and after a
	// metadata change. Readers load it without mu; only holders of mu
	// store it.
	entry atomic.Pointer[testEntry]
	// served holds the raw [0] and quality-controlled [1] Results last
	// served, nil once a session, a drop or a metadata change has come
	// since. Only live state has any.
	served [2]*Results

	live bool
	// replayErr latches a failed replay of storage: the state stays lazy and
	// every reader gets the error, without another replay, until a delete or
	// an overwriting put (dropLocked) gives the replay a chance to differ.
	replayErr error

	// fs is the test's FoldState, judged under judged's metadata.
	fs     FoldState
	judged *testEntry
	// order holds the session document ids ascending, to know a replayed
	// change event from a new session.
	order []string
	// raw is the page spine tallying every session: the unfiltered results.
	raw []PageResult

	engine   *earlystop.State // nil when early stopping is off or decided
	decision *earlystop.Decision
}

// judge starts an empty state that judges sessions under entry.
func (st *testFold) judge(testID string, entry *testEntry) {
	st.fs = FoldState{TestID: testID, Pages: pageSpine(entry.info, nil), Votes: quality.NewVotes(), Workers: []string{}}
	st.judged, st.raw = entry, pageSpine(entry.info, nil)
}

// fold judges one session and folds it in: the session-local rules decide
// whether the worker passes, and a passing worker the crowd cannot reach is
// settled into the page tallies at once. It reports whether the session fed
// the sequential engine.
func (st *testFold) fold(docID string, feats *foldNote) (fed bool) {
	i, _ := slices.BinarySearch(st.order, docID)
	st.order = slices.Insert(st.order, i, docID)
	st.fs.Sessions++
	st.fs.Votes.Add(feats.Responses)
	passes := feats.PassesLocal(st.judged.qc)
	awaits := passes && feats.CrowdCanFail(st.judged.qc)
	for _, r := range feats.Responses {
		if p, ok := st.judged.pages[r.PageID]; ok {
			st.raw[p].Tally.Add(r.Choice)
			if passes && !awaits {
				st.fs.Pages[p].Tally.Add(r.Choice)
			}
		}
	}
	if passes {
		// The document id's copy of the worker id: no string of the state's.
		id := feats.WorkerID
		if _, stored, _ := strings.Cut(docID, "/"); stored == id {
			id = stored
		}
		i, _ = slices.BinarySearch(st.fs.Workers, id)
		st.fs.Workers = slices.Insert(st.fs.Workers, i, id)
		if awaits {
			i, _ = slices.BinarySearchFunc(st.fs.Awaiting, id, func(w FoldWorker, id string) int { return strings.Compare(w.ID, id) })
			st.fs.Awaiting = slices.Insert(st.fs.Awaiting, i, FoldWorker{ID: id, Answers: feats.Responses})
		}
	}

	if st.engine == nil {
		return false
	}
	// The engine's evidence is one vote per answer on a real page;
	// control-page answers are quality bait, not preference evidence.
	var buf [8]earlystop.Vote
	votes := buf[:0]
	for _, r := range feats.Responses {
		if p, ok := st.judged.pages[r.PageID]; ok && st.judged.info.Pages[p].Kind == aggregator.KindReal {
			votes = append(votes, earlystop.Vote{PageID: r.PageID, QuestionID: r.QuestionID, Choice: r.Choice})
		}
	}
	if d := st.engine.Fold(votes); d != nil {
		// Decided: evidence accounting is over. Stored stragglers (uploads
		// that raced the decision) still count in results, not here.
		st.decision, st.engine = d, nil
	}
	return true
}

// snapshot copies the live FoldState: no later fold writes what it holds.
func (st *testFold) snapshot() *FoldState {
	fs := st.fs
	fs.Pages, fs.Workers, fs.Awaiting = slices.Clone(fs.Pages), slices.Clone(fs.Workers), slices.Clone(fs.Awaiting)
	fs.Votes = quality.NewVotes()
	fs.Votes.Merge(st.fs.Votes)
	return &fs
}

// foldTable holds every test's record. Each record has its own lock; the
// table itself is only ever searched.
type foldTable struct {
	early     *EarlyStopConfig // nil: no sequential engine
	db        *store.DB
	responses *store.Collection
	tests     sync.Map // test id -> *testFold

	testHits, testMisses     atomic.Int64 // loads served an installed entry, or reading storage
	resultHits, resultMisses atomic.Int64 // results served as last served, or computed
	applied                  atomic.Int64 // sessions folded from the write path
	rebuilds                 atomic.Int64 // replays of a test's stored sessions
	invalidations            atomic.Int64 // tests dropped back to lazy state
	sessions                 atomic.Int64 // sessions currently held across tests
	liveTests                atomic.Int64
	tracked                  atomic.Int64 // tests with a record
	folds                    atomic.Int64 // sessions folded into engines
	decided                  atomic.Int64 // decisions latched
	rejects                  atomic.Int64 // uploads answered 200 + X-Kscope-Concluded
}

// lock returns the test's record with its mutex held, creating it when
// create is set; nil when there is none.
func (f *foldTable) lock(testID string, create bool) *testFold {
	for {
		v, ok := f.tests.Load(testID)
		if !ok {
			if !create {
				return nil
			}
			if v, ok = f.tests.LoadOrStore(testID, &testFold{}); !ok {
				f.tracked.Add(1)
			}
		}
		st := v.(*testFold)
		st.mu.Lock()
		if !st.gone {
			return st
		}
		st.mu.Unlock()
	}
}

// load returns the test's serving entry. An installed one is read without
// the record's lock; a missing one is read from storage under it.
func (f *foldTable) load(testID string) (*testEntry, error) {
	if v, ok := f.tests.Load(testID); ok {
		if e := v.(*testFold).entry.Load(); e != nil {
			f.testHits.Add(1)
			return e, nil
		}
	}
	st := f.lock(testID, true)
	defer st.mu.Unlock()
	return f.entryLocked(st, testID)
}

// entryLocked returns the record's entry, reading storage and installing
// one when there is none. The record is in the table before the read, so a
// metadata change committed after it waits on the lock and clears what this
// installs. A record a failed read leaves holding nothing is removed, so
// requests for unknown ids leave nothing behind.
func (f *foldTable) entryLocked(st *testFold, testID string) (*testEntry, error) {
	if e := st.entry.Load(); e != nil {
		return e, nil
	}
	f.testMisses.Add(1)
	prep, err := aggregator.LoadPrepared(f.db, testID)
	if err != nil {
		if !st.live && st.decision == nil && st.replayErr == nil {
			f.removeLocked(st, testID)
		}
		return nil, err
	}
	e := newTestEntry(prep)
	switch {
	case !st.live:
	case st.judged.judgesLike(e):
		st.judged = e
	default:
		f.dropLocked(st)
	}
	st.entry.Store(e)
	return e, nil
}

// invalidate clears the test's entry and the results served under it: its
// metadata changed. The fold state stays until the next install judges it.
func (f *foldTable) invalidate(testID string) {
	if st := f.lock(testID, false); st != nil {
		st.entry.Store(nil)
		st.served = [2]*Results{}
		st.mu.Unlock()
	}
}

// feeding reports whether a handler about to store sessions for the test
// should attach fold notes: the test has live state to feed. With early
// stopping on it first makes the state live, so the engine sees every
// session from the first one on and a fresh test never pays a replay.
func (f *foldTable) feeding(testID string) bool {
	st := f.lock(testID, f.early != nil)
	if st == nil {
		return false
	}
	defer st.mu.Unlock()
	if f.early != nil {
		// A replay that fails (a corrupt stored session) leaves the state
		// lazy; /results reports the fault.
		_ = f.liveLocked(st, testID)
	}
	return st.live
}

// liveLocked makes lazy state live by replaying storage under the record's
// entry, once: a failed replay is latched and answered from the latch.
func (f *foldTable) liveLocked(st *testFold, testID string) error {
	if st.live || st.replayErr != nil {
		return st.replayErr
	}
	entry, err := f.entryLocked(st, testID)
	if err != nil {
		return err
	}
	st.replayErr = f.rebuildLocked(st, testID, entry)
	return st.replayErr
}

// observe is the change-feed entry point, called on the mutating goroutine
// after a responses-collection mutation commits; whatever it does, the
// results served before it are cleared. inserted says the put came through
// an upload handler's InsertUniqueNoted, which never overwrites: with a note
// it is either new and folded, or — when a replay of storage got to the
// committed document before its event did — already folded and ignored;
// without one (the handler saw lazy state) live state cannot follow it.
// Anything else (a delete, a put from elsewhere) means storage moved in a
// way the state cannot follow incrementally — and in the only way that can
// cure a corrupt stored session — so it drops to lazy and unlatches.
func (f *foldTable) observe(op, docID, testID string, note *foldNote, inserted bool) {
	st := f.lock(testID, false)
	if st == nil {
		return
	}
	defer st.mu.Unlock()
	st.served = [2]*Results{}
	switch {
	case op != store.OpPut || !inserted, st.live && note == nil:
		f.dropLocked(st)
	case st.live:
		if _, replay := slices.BinarySearch(st.order, docID); !replay {
			f.foldLocked(st, docID, note)
			f.applied.Add(1)
		}
	}
}

// foldLocked folds one session into live state.
func (f *foldTable) foldLocked(st *testFold, docID string, feats *foldNote) {
	f.sessions.Add(1)
	if st.fold(docID, feats) {
		f.folds.Add(1)
		if st.engine == nil {
			f.decided.Add(1)
		}
	}
}

// rebuildLocked makes lazy state live by replaying the test's stored
// sessions in document-id order. A change event that races the replay is
// harmless: the replay reads committed documents, and the event of one it
// already folded is recognised by its id in observe. After a restart this
// is also what re-derives the decision from the stored evidence (decisions
// are not separately persisted).
func (f *foldTable) rebuildLocked(st *testFold, testID string, entry *testEntry) error {
	st.judge(testID, entry)
	if f.early != nil && st.decision == nil {
		// One evidence stream per real page per question. A misconfigured
		// alpha leaves the engine off.
		st.engine, _ = earlystop.New(earlystop.Config{
			Alpha: f.early.Alpha, Streams: max(entry.info.realQuestions(), 1),
		})
	}
	err := eachStoredSession(f.responses, testID, func(docID string, u *SessionUpload) {
		f.foldLocked(st, docID, entry.reduce(u))
	})
	if err != nil {
		f.sessions.Add(-int64(len(st.order)))
		st.clear()
		return err
	}
	st.live = true
	f.liveTests.Add(1)
	if len(st.order) > 0 {
		f.rebuilds.Add(1)
	}
	return nil
}

// eachStoredSession decodes every stored session of a test, in document-id
// order — the one loop behind the fold state's replay, the fold read of a
// lazy state and Sessions.
func eachStoredSession(coll *store.Collection, testID string, fn func(docID string, u *SessionUpload)) error {
	for _, doc := range coll.FindEq("test_id", testID) {
		if err, unreadable := doc["session"].(error); unreadable {
			return fmt.Errorf("server: corrupt session %s: %w", doc.ID(), err)
		}
		raw, _ := doc["session"].(string)
		var upload SessionUpload
		b := []byte(raw)
		n, err := decodeSession(b, &upload)
		if err == nil && jsonscan.SkipSpace(b, n) < len(b) {
			err = errTrailingData
		}
		if err != nil {
			return fmt.Errorf("server: corrupt session %s: %w", doc.ID(), err)
		}
		fn(doc.ID(), &upload)
	}
	return nil
}

// clear releases everything of the fold state but the latched decision.
func (st *testFold) clear() {
	st.live = false
	st.fs, st.judged, st.order, st.raw, st.engine = FoldState{}, nil, nil, nil, nil
}

// dropLocked sends live state back to lazy, with the results served from
// it, and forgets a latched replay error: whatever the caller saw may have
// changed what a replay reads.
func (f *foldTable) dropLocked(st *testFold) {
	st.replayErr = nil
	st.served = [2]*Results{}
	if !st.live {
		return
	}
	f.sessions.Add(-int64(len(st.order)))
	f.liveTests.Add(-1)
	f.invalidations.Add(1)
	st.clear()
}

// removeLocked takes the record out of the table.
func (f *foldTable) removeLocked(st *testFold, testID string) {
	st.gone = true
	f.tests.CompareAndDelete(testID, st)
	f.tracked.Add(-1)
}

// drop sends one test's state back to lazy, keeping any latched decision.
func (f *foldTable) drop(testID string) {
	if st := f.lock(testID, false); st != nil {
		f.dropLocked(st)
		st.mu.Unlock()
	}
}

// dropAll sends every test back to lazy state (an unattributable session
// id).
func (f *foldTable) dropAll() { f.each(f.drop) }

// each calls fn with every test id that has a record.
func (f *foldTable) each(fn func(testID string)) {
	f.tests.Range(func(id, _ any) bool {
		fn(id.(string))
		return true
	})
}

// purge forgets a test, latched decision included — the test-deletion
// path, after which a recreated test starts undecided.
func (f *foldTable) purge(testID string) {
	if st := f.lock(testID, false); st != nil {
		f.dropLocked(st)
		st.entry.Store(nil)
		f.removeLocked(st, testID)
		st.mu.Unlock()
	}
}

// decision returns a copy of the test's latched decision, or nil.
func (f *foldTable) decision(testID string) *earlystop.Decision {
	st := f.lock(testID, false)
	if st == nil {
		return nil
	}
	defer st.mu.Unlock()
	if st.decision == nil {
		return nil
	}
	d := *st.decision
	return &d
}

// results serves the HTTP results surface, raw or under the default battery:
// the Results last served while nothing has changed since, else a
// conclusion of the fold state, made live first under the test's current
// entry, carrying the decision when one is latched (an undecided test's
// bytes are an engine-less server's). It must produce exactly what the
// oracle (ConcludeScratch) produces: same worker counts, same kept-worker
// order (session-document-id order), same tallies, same page order, and the
// same Filtered quirk (false when quality control is requested but no
// sessions exist). The filtered conclusion is the test's FoldState
// evaluated — the one kernel a router runs over the merged states of a
// fleet.
func (f *foldTable) results(ctx context.Context, testID string, useQC bool) (*Results, error) {
	st := f.lock(testID, true)
	defer st.mu.Unlock()
	view := 0
	if useQC {
		view = 1
	}
	if res := st.served[view]; res != nil {
		f.resultHits.Add(1)
		return res, nil
	}
	f.resultMisses.Add(1)
	// A disconnected client gets no tally: concluding can mean folding
	// thousands of stored sessions, and nobody is listening anymore.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Installing a changed entry judges the state before it is read.
	if _, err := f.entryLocked(st, testID); err != nil {
		return nil, err
	}
	if err := f.liveLocked(st, testID); err != nil {
		return nil, err
	}
	var res *Results
	if useQC {
		res = st.fs.Conclude()
		if len(st.fs.Awaiting) == 0 {
			// Conclude handed out the live worker list; the record keeps res.
			res.KeptWorkers = slices.Clone(res.KeptWorkers)
		}
	} else {
		res = &Results{TestID: testID, Workers: len(st.order), Pages: slices.Clone(st.raw)}
	}
	if st.decision != nil {
		d := *st.decision
		res.Concluded, res.Decision = true, &d
	}
	st.served[view] = res
	return res, nil
}

// state returns the test's FoldState without changing what the node
// retains: live state is copied as it is; a lazy one stays lazy, and storage
// is folded under entry for this one answer and nothing of it kept (a
// router's read must not decide a shard's memory — that takes /results or
// the sequential engine, as for any node).
func (f *foldTable) state(testID string, entry *testEntry) (*FoldState, error) {
	if st := f.lock(testID, false); st != nil {
		var fs *FoldState
		if st.live {
			fs = st.snapshot()
		}
		err := st.replayErr
		st.mu.Unlock()
		if fs != nil || err != nil {
			return fs, err
		}
	}
	var once testFold
	once.judge(testID, entry)
	err := eachStoredSession(f.responses, testID, func(docID string, u *SessionUpload) {
		once.fold(docID, entry.reduce(u))
	})
	if err != nil {
		return nil, err
	}
	return &once.fs, nil
}

// pageSpine lists a test's pages in stored order, each with its tally.
func pageSpine(info *TestInfo, tallies map[string]*questionnaire.Tally) []PageResult {
	var pages []PageResult
	for _, p := range info.Pages {
		pr := PageResult{PageID: p.ID, LeftName: p.LeftName, RightName: p.RightName, Kind: p.Kind}
		if t, ok := tallies[p.ID]; ok {
			pr.Tally = *t
		}
		pages = append(pages, pr)
	}
	return pages
}

// registerGauges exports the records' statistics; the early-stopping
// series exist only on a server running the engine.
func (f *foldTable) registerGauges(reg *obs.Registry) {
	gauges := map[string]*atomic.Int64{
		"kscope_accum_tests":               &f.liveTests,
		"kscope_accum_sessions":            &f.sessions,
		"kscope_accum_applied_total":       &f.applied,
		"kscope_accum_rebuilds_total":      &f.rebuilds,
		"kscope_accum_invalidations_total": &f.invalidations,
	}
	if f.early != nil {
		gauges["kscope_earlystop_tests"] = &f.tracked
		gauges["kscope_earlystop_decided_total"] = &f.decided
		gauges["kscope_earlystop_folds_total"] = &f.folds
		gauges["kscope_earlystop_concluded_rejects_total"] = &f.rejects
	}
	for name, v := range gauges {
		reg.RegisterGauge(name, func() float64 { return float64(v.Load()) })
	}
	for _, c := range []struct {
		name         string
		hits, misses *atomic.Int64
	}{
		{"tests", &f.testHits, &f.testMisses},
		{"results", &f.resultHits, &f.resultMisses},
	} {
		hits, misses := c.hits, c.misses
		reg.RegisterGauge(fmt.Sprintf("kscope_cache_hits{cache=%q}", c.name), func() float64 {
			return float64(hits.Load())
		})
		reg.RegisterGauge(fmt.Sprintf("kscope_cache_misses{cache=%q}", c.name), func() float64 {
			return float64(misses.Load())
		})
		reg.RegisterGauge(fmt.Sprintf("kscope_cache_hit_ratio{cache=%q}", c.name), func() float64 {
			h, m := float64(hits.Load()), float64(misses.Load())
			if h+m == 0 {
				return 0
			}
			return h / (h + m)
		})
	}
}
