package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// fetchFold fetches the node's fold document and holds it to the decoder a
// router runs on it.
func fetchFold(t *testing.T, srv *Server) ([]byte, *FoldState) {
	t.Helper()
	rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/fold", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET fold = %d: %s", rec.Code, rec.Body.String())
	}
	fs, err := DecodeFoldState(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("a node's own fold document is refused: %v\n%s", err, rec.Body.String())
	}
	return rec.Body.Bytes(), fs
}

// The fold read serves the same document from a lazy state (storage folded
// for the one answer) and from a live one, the document concludes to the
// from-scratch oracle, and reading it does not make the node retain
// anything: that takes /results or the sequential engine.
func TestFoldReadDoesNotPromote(t *testing.T) {
	srv, prep := prepTest(t)
	for i := 0; i < 12; i++ {
		if rec := postUpload(t, srv, prep, fmt.Sprintf("w%02d", i)); rec.Code != http.StatusCreated {
			t.Fatalf("upload %d = %d", i, rec.Code)
		}
	}
	fast := sampleUpload(prep, "w99-fast", questionnaire.ChoiceRight)
	for i := range fast.Behaviors {
		fast.Behaviors[i].TimeOnTaskMillis = 700
	}
	payload, _ := json.Marshal(fast)
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
		t.Fatalf("unengaged upload = %d", rec.Code)
	}

	lazy, fs := fetchFold(t, srv)
	if live, n := srv.folds.liveTests.Load(), srv.folds.sessions.Load(); live != 0 || n != 0 {
		t.Errorf("the fold read made fold state live (%d tests, %d sessions)", live, n)
	}
	if fs.Sessions != 13 || len(fs.Workers) != 12 {
		t.Errorf("document holds %d sessions, %d passing workers; want 13 and 12", fs.Sessions, len(fs.Workers))
	}
	want, err := srv.ConcludeScratch("srv-test", true)
	if err != nil {
		t.Fatal(err)
	}
	got, wantJSON := mustMarshal(t, fs.Conclude()), mustMarshal(t, want)
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("document concludes to\n%s\noracle\n%s", got, wantJSON)
	}

	assertServedEqualsOracle(t, srv, "srv-test") // /results makes the state live
	if live, _ := fetchFold(t, srv); !bytes.Equal(live, lazy) {
		t.Errorf("live state serves\n%s\nstorage folded in passing served\n%s", live, lazy)
	}
	if r := srv.folds.rebuilds.Load(); r != 1 {
		t.Errorf("kscope_accum_rebuilds_total = %d, want 1 (the /results replay only)", r)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// With the store breaker open the fold read answers what it answers with the
// breaker closed, marked degraded: live state read without touching the
// collection, a lazy one folded for the one answer and kept lazy.
func TestFoldReadDegraded(t *testing.T) {
	for _, live := range []bool{true, false} {
		srv, prep, ffs, _ := prepGuardedTest(t, guard.Config{MaxInflight: 8, BreakerThreshold: 2, BreakerCooldown: time.Minute})
		g := srv.guard
		for _, w := range []string{"w1", "w2", "w3"} {
			if rec := postUpload(t, srv, prep, w); rec.Code != http.StatusCreated {
				t.Fatalf("upload: %d", rec.Code)
			}
		}
		if live {
			assertServedEqualsOracle(t, srv, "srv-test")
		} else if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test", nil, nil); rec.Code != http.StatusOK {
			t.Fatalf("test info: %d", rec.Code) // the entry is cached either way
		}
		healthy, _ := fetchFold(t, srv)
		tripBreaker(t, srv, prep, ffs, g)
		scans, liveTests := srv.responses.Stats(), srv.folds.liveTests.Load()

		rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/fold", nil, nil)
		if rec.Code != http.StatusOK || rec.Header().Get(DegradedHeader) != "1" {
			t.Errorf("live=%v, breaker open: status %d degraded=%q: %s", live, rec.Code, rec.Header().Get(DegradedHeader), rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), healthy) {
			t.Errorf("live=%v: degraded document\n%s\nhealthy document\n%s", live, rec.Body.Bytes(), healthy)
		}
		if got := srv.folds.liveTests.Load(); got != liveTests {
			t.Errorf("live=%v: kscope_accum_tests %d -> %d across the degraded fold read", live, liveTests, got)
		}
		if after := srv.responses.Stats(); live && after != scans {
			t.Errorf("the degraded fold read of live state touched the collection: %+v -> %+v", scans, after)
		}
	}
}

// One corrupt stored session used to cost a replay of storage on every
// upload of its test with early stopping on. The failure is latched: one
// replay, every reader answered from the latch, until storage moves in a way
// that could have cured it.
func TestCorruptSessionReplaysOnce(t *testing.T) {
	db, blobs := store.OpenMemory(), store.NewBlobStore()
	srv, prep := prepTestOn(t, db, blobs, "srv-test", WithEarlyStop(EarlyStopConfig{Alpha: 0.05}))
	if _, err := srv.responses.Insert(store.Document{
		store.IDField: "srv-test/evil", "test_id": "srv-test", "worker_id": "evil", "session": "{not json",
	}); err != nil {
		t.Fatal(err)
	}
	// A replay is the only FindEq on the upload and results paths.
	replays := func() int64 { return srv.responses.Stats().IndexHits }
	upload := func(worker string, choice questionnaire.Choice) {
		t.Helper()
		payload, _ := json.Marshal(sampleUpload(prep, worker, choice))
		if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil); rec.Code != http.StatusCreated {
			t.Fatalf("upload %s = %d: %s", worker, rec.Code, rec.Body.String())
		}
	}

	before := replays()
	for i := 0; i < 6; i++ {
		upload(fmt.Sprintf("a%d", i), []questionnaire.Choice{questionnaire.ChoiceLeft, questionnaire.ChoiceRight}[i%2])
	}
	for _, path := range []string{"/results", "/results?quality=1", "/fold", "/results"} {
		if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test"+path, nil, nil); rec.Code != http.StatusInternalServerError {
			t.Errorf("GET %s with a corrupt session = %d, want 500", path, rec.Code)
		}
	}
	if got := replays() - before; got != 1 {
		t.Errorf("6 uploads and 4 reads replayed storage %d times, want once", got)
	}

	// Deleting the corrupt document is the kind of change that can cure the
	// replay: the next upload tries again, succeeds, and feeds live state.
	if err := srv.responses.Delete("srv-test/evil"); err != nil {
		t.Fatal(err)
	}
	before = replays()
	upload("b0", questionnaire.ChoiceLeft)
	upload("b1", questionnaire.ChoiceRight)
	if got := replays() - before; got != 1 {
		t.Errorf("after the cure 2 uploads replayed storage %d times, want once", got)
	}
	assertServedEqualsOracle(t, srv, "srv-test")

	// DELETE and re-create: the new test owes the old one's fault nothing.
	if _, err := srv.responses.Insert(store.Document{
		store.IDField: "srv-test/evil", "test_id": "srv-test", "worker_id": "evil", "session": "{not json",
	}); err != nil {
		t.Fatal(err)
	}
	if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("results over a corrupt session = %d, want 500", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodDelete, "/api/tests/srv-test", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", rec.Code, rec.Body.String())
	}
	prep = prepareOn(t, db, blobs, "srv-test")
	upload("c0", questionnaire.ChoiceLeft)
	assertServedEqualsOracle(t, srv, "srv-test")
	if n := db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "srv-test"); n != 1 {
		t.Errorf("re-created test holds %d sessions, want 1", n)
	}
}

// TestMergeEmptyPartitionsEitherOrder: partitions that hold nobody merge to
// the same document whichever is merged into which, however each spelled its
// empty worker list.
func TestMergeEmptyPartitionsEitherOrder(t *testing.T) {
	spellings := []string{`{}`, `{"workers":null}`, `{"workers":[]}`, `{"workers":[],"awaiting":[]}`, `{"pages":[]}`, `{"pages":null,"votes":null}`}
	for _, a := range spellings {
		for _, b := range spellings {
			var merged [2][]byte
			for i, order := range [][2]string{{a, b}, {b, a}} {
				x, errX := DecodeFoldState([]byte(order[0]))
				y, errY := DecodeFoldState([]byte(order[1]))
				if errX != nil || errY != nil {
					t.Fatalf("decode %s / %s: %v, %v", order[0], order[1], errX, errY)
				}
				if err := x.Merge(y); err != nil {
					t.Fatalf("merge %s into %s: %v", order[1], order[0], err)
				}
				merged[i], _ = json.Marshal(x)
			}
			if !bytes.Equal(merged[0], merged[1]) {
				t.Errorf("%s and %s merge to\n%s\nor\n%s\nby the order", a, b, merged[0], merged[1])
			}
		}
	}
}

// TestDecodeFoldStateRefuses: every check DecodeFoldState makes holds, and
// the codec refuses what its encoder never writes — a key unknown, respelled
// or repeated, a null where it writes none — the rule and the key named.
func TestDecodeFoldStateRefuses(t *testing.T) {
	for name, members := range map[string]string{
		"negative vote count":         `"votes":[{"page_id":"p","question_id":"q0","counts":{"left":-1}}]`,
		"repeated vote row":           `"votes":[{"page_id":"p","question_id":"q0","counts":{}},{"page_id":"p","question_id":"q0","counts":{}}]`,
		"unsorted vote rows":          `"votes":[{"page_id":"p","question_id":"q1","counts":{}},{"page_id":"p","question_id":"q0","counts":{}}]`,
		"votes that are not rows":     `"votes":{"p":1}`,
		"negative session count":      `"sessions":-1`,
		"more workers than sessions":  `"sessions":1,"workers":["a","b"]`,
		"unsorted workers":            `"sessions":2,"workers":["b","a"]`,
		"repeated worker":             `"sessions":2,"workers":["a","a"]`,
		"negative tally":              `"pages":[{"page_id":"p","tally":{"Left":0,"Right":-1,"Same":0}}]`,
		"awaiting worker not passing": `"sessions":1,"workers":["a"],"awaiting":[{"id":"b","answers":[]}]`,
		"awaiting workers unsorted":   `"sessions":2,"workers":["a","b"],"awaiting":[{"id":"b","answers":[]},{"id":"a","answers":[]}]`,
	} {
		if fs, err := DecodeFoldState([]byte(`{` + members + `}`)); err == nil {
			t.Errorf("%s accepted: %s -> %+v", name, members, fs)
		}
	}
	for doc, want := range map[string]string{
		`{"~":0}`:                                    `unknown key "~" at byte 1`,
		`{"Sessions":1}`:                             `case or escape in key "Sessions" at byte 1`,
		`{"sessions":1,"sessions":1}`:                `repeated key "sessions" at byte 14`,
		`{"sessions":null}`:                          `null for "sessions" at byte 12`,
		`{"awaiting":null}`:                          `null for "awaiting" at byte 12`,
		`{"workers":["a",null]}`:                     `null element of "workers" at byte 16`,
		`{"pages":[{"tally":null}]}`:                 `null for "tally" at byte 19`,
		`{"votes":[{"counts":{"left":1,"left":2}}]}`: `repeated key "left" at byte 30`,
		`{"sessions":1} {}`:                          `trailing data after JSON value`,
		`{"sessions":1.5}`:                           `want an integer at byte 12`,
		`{"sessions":1`:                              `unexpected end of JSON input`,
	} {
		if _, err := DecodeFoldState([]byte(doc)); err == nil || err.Error() != "server: fold state: "+want {
			t.Errorf("%s: %v, want %q", doc, err, want)
		}
	}
}

// TestFoldCodecReadsTheNullsItWrites: append writes null for a nil list or
// map — pages, votes, workers, a vote row's counts, a worker's answers — and
// scan reads each back as nil.
func TestFoldCodecReadsTheNullsItWrites(t *testing.T) {
	fs := &FoldState{TestID: "t", Sessions: 1, Workers: []string{"a"}, Awaiting: []FoldWorker{{ID: "a"}}, Votes: quality.NewVotes()}
	fs.Votes.SetRow(quality.QuestionRef{PageID: "p", QuestionID: "q0"}, nil)
	d := fs.doc()
	d.Pages, d.Workers = nil, nil
	wire := d.append(nil)
	const want = `{"test_id":"t","sessions":1,"pages":null,"votes":[{"page_id":"p","question_id":"q0","counts":null}],"workers":null,"awaiting":[{"id":"a","answers":null}]}`
	if string(wire) != want {
		t.Fatalf("append wrote %s, want %s", wire, want)
	}
	var got foldDoc
	if err := got.scan(wire); err != nil || !reflect.DeepEqual(got, *d) {
		t.Errorf("scan read %+v (%v), want %+v", got, err, *d)
	}
	d.Votes = nil
	if err := got.scan(d.append(nil)); err != nil || got.Votes != nil {
		t.Errorf("scan of null votes: %+v (%v)", got.Votes, err)
	}
}

// TestFoldCodecCoversEveryField is the guard against the structs under
// FoldState drifting from the fold codec: a field added to FoldState,
// PageResult, questionnaire.Tally, FoldWorker or quality.ResponseKey and not
// to foldstate.go is an unknown key to the scan (this test fails on it), a
// missing one in append's bytes (it fails on the bytes) or lost on the way
// through (it fails on the state) — here, not as a router that silently
// reads every document through encoding/json or merges a field away.
func TestFoldCodecCoversEveryField(t *testing.T) {
	var fs FoldState
	v, next := reflect.ValueOf(&fs).Elem(), new(int)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() != reflect.TypeOf(fs.Votes) {
			fillEveryField(t, f, next)
		}
	}
	// What the checks need, and the votes, which only their rows can fill.
	fs.Sessions, fs.Workers = 2, []string{"a", "b"}
	fs.Awaiting[0].ID, fs.Awaiting[1].ID = "a", "b"
	fs.Votes = quality.NewVotes()
	fs.Votes.SetRow(quality.QuestionRef{PageID: "p", QuestionID: "q1"}, map[questionnaire.Choice]int{"same": 1, "left": 2})
	fs.Votes.SetRow(quality.QuestionRef{PageID: "p", QuestionID: "q0"}, map[questionnaire.Choice]int{})
	wire := mustMarshal(t, fs.doc())

	if got := mustMarshal(t, &fs); !bytes.Equal(got, wire) {
		t.Errorf("the fold codec writes\n%s\njson.Marshal writes\n%s", got, wire)
	}
	var d foldDoc
	if err := d.scan(wire); err != nil {
		t.Fatalf("the scan refuses a fold document with every field set: %v\n%s", err, wire)
	}
	var slow foldDoc
	if err := json.Unmarshal(wire, &slow); err != nil || !reflect.DeepEqual(d, slow) {
		t.Errorf("the scan reads %+v\njson.Unmarshal reads %+v (%v)", d, slow, err)
	}
	if back, err := d.state(); err != nil || !reflect.DeepEqual(back, &fs) {
		t.Errorf("decoded %+v (%v)\nwant %+v", back, err, &fs)
	}
}
