package server

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/earlystop"
	"kaleidoscope/internal/jsonscan"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// The fold pipeline: every stored session is decoded once, judged once and
// folded once.
//
// A test's live state is its FoldState (foldstate.go) itself: each session
// is judged by the battery's session-local rules as it is folded, so the
// state keeps the passing worker ids, the answers of those the crowd check
// can still fail, the settled page tallies and the votes — beside the
// node-local sorted session ids, raw page tallies and, with early stopping
// on, the sequential engine and its latched decision. /results, the fold
// document, the decision, the concluded-upload check and the
// kscope_accum_* / kscope_earlystop_* gauges are views over it; readers copy
// what they keep under the test's lock. The state remembers the entry it was
// judged under and drops to lazy when a re-prepare in place changes what a
// judgment reads; an equal entry rebuilt is adopted.
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
// Ordering the results cache relies on: the hook folds before it bumps the
// test's cache generation, and both happen before the insert returns to
// the handler. A reader that snapshots the generation and then reads the
// state sees every session that generation claims, and an acknowledged
// session is folded (or the state is lazy) before its 201 is written.

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

// testFold is one test's fold state. Everything but the decision is
// dropped when the state goes lazy; the decision is latched for the life of
// the test and only deletion clears it.
type testFold struct {
	mu   sync.Mutex
	gone bool // purged from the table: look the test up again
	live bool
	// replayErr latches a failed replay of storage: the state stays lazy and
	// every reader gets the error, without another replay, until a delete or
	// an overwriting put (dropLocked) gives the replay a chance to differ.
	replayErr error

	// fs is the test's FoldState, judged under entry's metadata.
	fs    FoldState
	entry *testEntry
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
	st.entry, st.raw = entry, pageSpine(entry.info, nil)
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
	cfg := *defaultQC(st.entry)
	passes := feats.PassesLocal(cfg)
	awaits := passes && feats.CrowdCanFail(cfg)
	for _, r := range feats.Responses {
		if p, ok := st.entry.pages[r.PageID]; ok {
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
		if p, ok := st.entry.pages[r.PageID]; ok && st.entry.info.Pages[p].Kind == aggregator.KindReal {
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

// foldTable holds every test's fold state. Each state has its own lock;
// the table itself is only ever searched.
type foldTable struct {
	early     *EarlyStopConfig // nil: no sequential engine
	responses *store.Collection
	tests     sync.Map // test id -> *testFold

	applied       atomic.Int64 // sessions folded from the write path
	rebuilds      atomic.Int64 // replays of a test's stored sessions
	invalidations atomic.Int64 // tests dropped back to lazy state
	sessions      atomic.Int64 // sessions currently held across tests
	liveTests     atomic.Int64
	tracked       atomic.Int64 // tests with a table entry
	folds         atomic.Int64 // sessions folded into engines
	decided       atomic.Int64 // decisions latched
	rejects       atomic.Int64 // uploads answered 200 + X-Kscope-Concluded
}

// lock returns the test's state with its mutex held, creating it (lazy)
// when create is set; nil when there is none. Live state judged under
// metadata that entry contradicts drops to lazy here.
func (f *foldTable) lock(testID string, entry *testEntry, create bool) *testFold {
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
		if st.gone {
			st.mu.Unlock()
			continue
		}
		switch live := st.live && entry != nil; {
		case live && st.entry.judgesLike(entry):
			st.entry = entry
		case live:
			f.dropLocked(st)
		}
		return st
	}
}

// feeding reports whether a handler about to store sessions for the test
// should attach fold notes: the test has live state to feed. With early
// stopping on it first makes the state live, so the engine sees every
// session from the first one on and a fresh test never pays a replay.
func (f *foldTable) feeding(testID string, entry *testEntry) bool {
	st := f.lock(testID, entry, f.early != nil)
	if st == nil {
		return false
	}
	defer st.mu.Unlock()
	if f.early != nil {
		// A replay that fails (a corrupt stored session) leaves the state
		// lazy; /results reports the fault.
		_ = f.liveLocked(st, testID, entry)
	}
	return st.live
}

// liveLocked makes lazy state live by replaying storage, once: a failed
// replay is latched and answered from the latch.
func (f *foldTable) liveLocked(st *testFold, testID string, entry *testEntry) error {
	if st.live {
		return nil
	}
	if st.replayErr == nil {
		st.replayErr = f.rebuildLocked(st, testID, entry)
	}
	return st.replayErr
}

// observe is the change-feed entry point, called on the mutating goroutine
// after a responses-collection mutation commits. inserted says the put came
// through an upload handler's InsertUniqueNoted, which never overwrites: with
// a note it is either new and folded, or — when a replay of storage got to
// the committed document before its event did — already folded and ignored;
// without one (the handler saw lazy state) live state cannot follow it.
// Anything else (a delete, a put from elsewhere) means storage moved in a
// way the state cannot follow incrementally — and in the only way that can
// cure a corrupt stored session — so it drops to lazy and unlatches.
func (f *foldTable) observe(op, docID, testID string, note *foldNote, inserted bool) {
	st := f.lock(testID, nil, false)
	if st == nil {
		return
	}
	defer st.mu.Unlock()
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

// clear releases everything but the latched decision.
func (st *testFold) clear() {
	st.live = false
	st.fs, st.entry, st.order, st.raw, st.engine = FoldState{}, nil, nil, nil, nil
}

// dropLocked sends live state back to lazy and forgets a latched replay
// error: whatever the caller saw may have changed what a replay reads.
func (f *foldTable) dropLocked(st *testFold) {
	st.replayErr = nil
	if !st.live {
		return
	}
	f.sessions.Add(-int64(len(st.order)))
	f.liveTests.Add(-1)
	f.invalidations.Add(1)
	st.clear()
}

// drop sends one test's state back to lazy, keeping any latched decision.
func (f *foldTable) drop(testID string) {
	if st := f.lock(testID, nil, false); st != nil {
		f.dropLocked(st)
		st.mu.Unlock()
	}
}

// dropAll sends every test back to lazy state (unattributable change).
func (f *foldTable) dropAll() {
	f.tests.Range(func(id, _ any) bool {
		f.drop(id.(string))
		return true
	})
}

// purge forgets a test, latched decision included — the test-deletion
// path, after which a recreated test starts undecided.
func (f *foldTable) purge(testID string) {
	if st := f.lock(testID, nil, false); st != nil {
		f.dropLocked(st)
		st.gone = true
		f.tests.Delete(testID)
		f.tracked.Add(-1)
		st.mu.Unlock()
	}
}

// decision returns a copy of the test's latched decision, or nil.
func (f *foldTable) decision(testID string) *earlystop.Decision {
	st := f.lock(testID, nil, false)
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

// results serves a conclusion from the fold state, making it live first.
// It must produce exactly what the oracle (ConcludeScratch) produces: same
// worker counts, same kept-worker order (session-document-id order), same
// tallies, same page order, and the same Filtered quirk (false when
// quality control is requested but no sessions exist). The filtered
// conclusion is the test's FoldState evaluated — the one kernel a router
// runs over the merged states of a fleet.
func (f *foldTable) results(testID string, entry *testEntry, useQC bool) (*Results, error) {
	st := f.lock(testID, entry, true)
	defer st.mu.Unlock()
	if err := f.liveLocked(st, testID, entry); err != nil {
		return nil, err
	}
	if !useQC {
		return &Results{TestID: testID, Workers: len(st.order), Pages: slices.Clone(st.raw)}, nil
	}
	res := st.fs.Conclude()
	if len(st.fs.Awaiting) == 0 {
		// Conclude handed out the live worker list; the cache keeps res.
		res.KeptWorkers = slices.Clone(res.KeptWorkers)
	}
	return res, nil
}

// state returns the test's FoldState without changing what the node
// retains: live state is copied as it is; a lazy one stays lazy, and storage
// is folded for this one answer and nothing of it kept (a router's read must
// not decide a shard's memory — that takes /results or the sequential
// engine, as for any node).
func (f *foldTable) state(testID string, entry *testEntry) (*FoldState, error) {
	if st := f.lock(testID, entry, false); st != nil {
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

// registerGauges exports the fold state's statistics; the early-stopping
// series exist only on a server running the engine.
func (f *foldTable) registerGauges(s *Server) {
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
		s.reg.RegisterGauge(name, func() float64 { return float64(v.Load()) })
	}
}
