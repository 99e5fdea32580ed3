package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// handleSessionBatchByDecoder is the batch loop the endpoint shipped with
// until the session codec replaced it — json.Decoder's token loop, one
// reflective Decode per element, json.Marshal for the stored form — kept as
// the differential oracle of the framing. It differs from what shipped in
// two ways. An element encoding/json reads that the session codec refuses by
// one of its four rules (checkDecodeSession holds that verdict to the bytes)
// is answered 400 with no worker id, and the stream reads on. And every
// element is decoded into a fresh upload, the single endpoint's reading. The
// pooled one it used came back from resetForReuse with empty, not nil,
// slices once it had held an element, so a session with no "controls" key
// was stored with "controls":[] or "controls":null depending on what the
// pool handed out. (Its element size still counts the separator; no input
// here is large enough to show it.) The guard and the early-stop check
// before the body is read are not part of what is compared.
func (s *Server) handleSessionBatchByDecoder(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	testID := r.PathValue("id")
	entry, err := s.folds.load(testID)
	if err != nil {
		writeLoadError(w, err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBytes)
	var body io.Reader = r.Body
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "decoding gzip body: %v", err)
			return
		}
		body = gz
	}
	body = newBudgetReader(body, maxBatchBytes)

	st := &batchState{report: BatchReport{TestID: testID, Results: []BatchElementResult{}}}
	fail := func(status int, format string, args ...any) {
		s.finishBatch(w, st, &writeGate{s: s}, status, format, args...)
	}
	dec := json.NewDecoder(body)
	tok, err := dec.Token()
	if err != nil {
		fail(s.batchStreamStatus(err), "decoding batch: %v", err)
		return
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		fail(http.StatusBadRequest, "batch body must be a JSON array of sessions, got %v", tok)
		return
	}
	for dec.More() {
		if len(st.report.Results) >= maxBatchSessions {
			fail(http.StatusRequestEntityTooLarge, "batch exceeds %d sessions", maxBatchSessions)
			return
		}
		if err := ctx.Err(); err != nil {
			st.pending, st.pendIdx = nil, nil
			fail(http.StatusRequestTimeout, "client canceled request: %v", err)
			return
		}
		start := dec.InputOffset()
		sr := new(sessionReader)
		var raw json.RawMessage
		err := dec.Decode(&raw)
		if err == nil {
			err = json.Unmarshal(raw, &sr.upload)
		}
		if err != nil {
			fail(s.batchStreamStatus(err), "decoding batch element %d: %v", len(st.report.Results), err)
			return
		}
		var refused *refusal
		_, err = decodeSession(raw, new(SessionUpload))
		elem := BatchElementResult{Index: len(st.report.Results), WorkerID: sr.upload.WorkerID}
		if errors.As(err, &refused) {
			elem.WorkerID = ""
		}
		if size := dec.InputOffset() - start; size > maxSessionBytes {
			elem.Status = http.StatusRequestEntityTooLarge
			elem.Error = fmt.Sprintf("session exceeds %d bytes", maxSessionBytes)
			st.report.Results = append(st.report.Results, elem)
			continue
		}
		if refused != nil {
			elem.Status = http.StatusBadRequest
			st.report.Results = append(st.report.Results, elem)
			continue
		}
		doc, err := s.buildSessionDoc(testID, entry, sr)
		if err != nil {
			elem.Status = http.StatusBadRequest
			elem.Error = err.Error()
			st.report.Results = append(st.report.Results, elem)
			continue
		}
		stored, err := json.Marshal(&sr.upload)
		if err != nil {
			panic(err)
		}
		doc["session"] = string(stored)
		st.report.Results = append(st.report.Results, elem)
		st.pending = append(st.pending, doc)
		st.pendIdx = append(st.pendIdx, elem.Index)
		st.notes = append(st.notes, (*foldNote)(nil))
		if len(st.pending) >= batchChunkSize {
			if !s.flushBatch(w, st, &writeGate{s: s}) {
				return
			}
		}
	}
	if _, err := dec.Token(); err != nil {
		fail(s.batchStreamStatus(err), "decoding batch: %v", err)
		return
	}
	if err := requireEOF(dec); err != nil {
		fail(http.StatusBadRequest, "batch body: %v", err)
		return
	}
	if !s.flushBatch(w, st, &writeGate{s: s}) {
		return
	}
	s.noteBatchMetrics(st)
	writeJSON(w, http.StatusOK, &st.report)
}

// countingReader counts what a handler read of a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// streamRig is a pair of identically prepared servers: now answers with the
// endpoint as it is, was with the json.Decoder loop.
type streamRig struct{ now, was *Server }

// newStreamRig also shrinks every budget the batch endpoint has a test
// variable for, so small inputs reach them, and the window to a few dozen
// bytes, so every element is decoded across several refills.
func newStreamRig(tb testing.TB) *streamRig {
	tb.Helper()
	oldBytes, oldSessions, oldChunk, oldWindow := maxBatchBytes, maxBatchSessions, batchChunkSize, sessionWindow
	tb.Cleanup(func() {
		maxBatchBytes, maxBatchSessions, batchChunkSize, sessionWindow = oldBytes, oldSessions, oldChunk, oldWindow
	})
	maxBatchBytes, maxBatchSessions, batchChunkSize, sessionWindow = 8<<10, 6, 2, 48
	now, _ := prepTest(tb)
	was, _ := prepTest(tb)
	return &streamRig{now: now, was: was}
}

func gzipBytes(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// check posts body to both servers three ways — as it is, gzip-compressed,
// and as it is but announced as gzip (so a fuzzer that is handed compressed
// seeds can cut and corrupt them) — and requires the same HTTP status, the
// same per-element statuses and worker ids, the same stored documents byte
// for byte, and no more read off the wire than the budget allows. Both
// stores are emptied afterwards: every input meets a fresh test.
func (rig *streamRig) check(t *testing.T, body []byte) {
	t.Helper()
	for _, wire := range []struct {
		how  string
		body []byte
		gzip bool
	}{{"plain", body, false}, {"gzip", gzipBytes(t, body), true}, {"announced as gzip", body, true}} {
		post := func(srv *Server, handle http.HandlerFunc) (*httptest.ResponseRecorder, BatchReport, []store.Document) {
			read := &countingReader{r: bytes.NewReader(wire.body)}
			req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions:batch", read)
			req.SetPathValue("id", "srv-test")
			if wire.gzip {
				req.Header.Set("Content-Encoding", "gzip")
			}
			rec := httptest.NewRecorder()
			handle(rec, req)
			if read.n > maxBatchBytes+1 {
				t.Errorf("%s: read %d bytes off the wire, the budget is %d", wire.how, read.n, maxBatchBytes)
			}
			var report BatchReport
			// A body that is not gzip at all is refused before there is a report.
			if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
				t.Fatalf("%s: status %d, body %s: %v", wire.how, rec.Code, rec.Body, err)
			}
			coll := srv.db.Collection(aggregator.ResponsesCollection)
			docs := coll.FindEq("test_id", "srv-test")
			for _, doc := range docs {
				if err := coll.Delete(doc.ID()); err != nil {
					t.Fatal(err)
				}
			}
			return rec, report, docs
		}
		got, gotReport, gotDocs := post(rig.now, rig.now.handleSessionBatch)
		want, wantReport, wantDocs := post(rig.was, rig.was.handleSessionBatchByDecoder)
		if got.Code != want.Code {
			t.Fatalf("%s: status %d (%s), the json.Decoder loop answers %d (%s)", wire.how, got.Code, gotReport.Error, want.Code, wantReport.Error)
		}
		if (gotReport.Error == "") != (wantReport.Error == "") || gotReport.Accepted != wantReport.Accepted || gotReport.Rejected != wantReport.Rejected {
			t.Errorf("%s: report %+v, the json.Decoder loop's %+v", wire.how, gotReport, wantReport)
		}
		if len(gotReport.Results) != len(wantReport.Results) {
			t.Fatalf("%s: %d elements reached, the json.Decoder loop reached %d", wire.how, len(gotReport.Results), len(wantReport.Results))
		}
		for i, res := range gotReport.Results {
			if w := wantReport.Results[i]; res.Index != w.Index || res.WorkerID != w.WorkerID || res.Status != w.Status {
				t.Errorf("%s: element %d = %+v, the json.Decoder loop's %+v", wire.how, i, res, w)
			}
		}
		if !reflect.DeepEqual(gotDocs, wantDocs) {
			t.Errorf("%s: stored %v\nthe json.Decoder loop stored %v", wire.how, gotDocs, wantDocs)
		}
	}
}

// streamCorpus is FuzzBatchStream's seed corpus beyond the valid batches its
// setup renders: batch_test.go's error matrix at the rig's budgets, and
// FuzzBatchSplit's corpus (internal/shard), whose documents are batches.
var streamCorpus = []string{
	`[]`, `null`, ` [ ] `, "\n null \t", `[null]`, `{}`, `"str"`, `0`, `[`, `[{]`, ``, ` `, `{"not":"an array"}`, `[{"worker_id":`, `nul`, `-`, `"open`,
	`[{},{},{},{},{},{}]`, `[{},{},{},{},{},{},{}]`, `[{},{},{},{},{},{} x`, `[{},{},{},{},{},{},`, `[{},{},{},{},{},{}}`,
	`[{"worker_id":"a"},{"worker_id":"b"},{"worker_id":"c"},{"worker_id":"d"}]`,
	`[{"worker_id":"a"}] x`, `[][]`, `[{"worker_id":"a"}],`, `null null`, `[{}]{"junk":1}`, `[{}}`, `[{},]`, `[,{}]`, `[{} {}]`, `[{}:{}]`,
	" [ { \"test_id\" : \"t\" , \"worker_id\"\t:\r\n\"w 1\" , \"responses\" : [ { \"worker_id\" : \"nested\" } ] } , { } ] ",
	`[{"worker\u005fid":"escaped-key"},{"worker_id":"esc\u0061ped"},{"worker_id":"q\"uote"},{"worker_id":"back\\slash"},{"\u0077orker_id":"a","worker_id":"b"}]`,
	`[{"worker_id":"first","worker_id":"last"},{"WORKER_ID":"upper"},{"Worker_Id":"mixed","worker_id":"exact"},{"worker_id":"exact","wORKER_id":"mixed"}]`,
	`[{"worker_id":"kept","worker_id":7},{"worker_id":"kept","worker_id":null},{"worker_id":null,"worker_id":"set"}]`,
	"[{\"wor\u212aer_id\":\"kelvin\"},{\"wor\\u212aer_id\":\"kelvin-escaped\"},{\"worker_id\":\"a\",\"wor\u212aer_id\":\"b\"}]",
	"[{\"worker_id\":\"caf\u00e9\"},{\"worker_id\":\"bad\xffutf8\"},{\"worker_id\":\"\xc3\"}]",
	`[{"worker_id":42},{"worker_id":null},{"worker_id":["a"]},{"worker_id":{"worker_id":"deep"}},{"worker_id":true}]`,
	`[1,"worker_id",null,true,false,-1.5e3,[1,[2,"]"]],["worker_id","x"],{}]`, `[null,null,12`, `[null,null,12 `, `[null,"a"`, `[null,true`,
	`[{"session":{"worker_id":"inner"},"worker_id":"outer"},{"session":{"worker_id":"inner"}},{"a":[{"worker_id":"x"}],"b":"}"}]`,
	`[{"worker_id ":"space"},{"worker_i":"short"},{"worker_idx":"long"},{"worker_id":""},{"worker_id":"~\u007f "}]`,
	"[{\"worker_id\":\"del\x7f\"},{\"worker_id\":\"{[,]}:\"},{\"k\":\"\\\\\",\"worker_id\":\"after-backslash\"}]",
	`[{"worker_id":"typed","responses":7},{"responses":"x","worker_id":"late"}]`,
}

// FuzzBatchStream is the gate on the batch endpoint's own framing: for any
// body, under budgets small enough for the fuzzer to reach and a window
// small enough that every element straddles refills, the endpoint and the
// json.Decoder loop it replaced answer alike (see streamRig.check).
func FuzzBatchStream(f *testing.F) {
	rig := newStreamRig(f)
	for _, seed := range streamCorpus {
		f.Add([]byte(seed))
	}
	for _, seed := range validStreams(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rig.check(t, body)
	})
}

// validStreams renders the seeds that need the prepared test: batches the
// endpoint accepts, with TestBatchElementErrors' element-level failures in
// them, up to and over the rig's byte budget, cut short, and compressed.
func validStreams(tb testing.TB) [][]byte {
	tb.Helper()
	_, prep := prepTest(tb)
	session := func(worker string) []byte {
		up := sampleUpload(prep, worker, questionnaire.ChoiceLeft)
		up.Responses[0].Comment = `she said "quicker" 👍`
		return mustMarshal(tb, up)
	}
	badPage := sampleUpload(prep, "bad-page", questionnaire.ChoiceRight)
	badPage.Responses[0].PageID = "ghost-page"
	noControls := strings.Replace(string(session("no-controls")), `,"controls":`, `,"ignored":`, 1)
	batch := func(elems ...[]byte) []byte {
		return append(append([]byte{'['}, bytes.Join(elems, []byte{','})...), ']')
	}
	mixed := batch(session("w1"), mustMarshal(tb, badPage), session("w2"), session("w1"), []byte(noControls), session(""))
	padded := func(n int) []byte {
		return append(bytes.Repeat([]byte{' '}, n-len(mixed)), mixed...)
	}
	seeds := [][]byte{
		mixed, batch(session("w1")), mixed[:len(mixed)/2], append(mixed[:len(mixed):len(mixed)], `{"junk":1}`...),
		padded(int(maxBatchBytes)), padded(int(maxBatchBytes) + 1), append(padded(int(maxBatchBytes)), ' '),
		append([]byte{'['}, bytes.Repeat([]byte{' '}, int(maxBatchBytes))...),
		gzipBytes(tb, mixed), gzipBytes(tb, mixed)[:40],
		// Where an array should start, and longer than the budget: a scalar
		// is read to its end before it is refused, an object is not.
		[]byte(`"` + strings.Repeat("a", int(maxBatchBytes))), bytes.Repeat([]byte{'1'}, int(maxBatchBytes)+2),
		[]byte(`{"a":"` + strings.Repeat("a", int(maxBatchBytes))),
	}
	// A scalar element that the budget runs out under, and just before: only
	// the byte after it says it has ended.
	for _, scalar := range []string{"null", "12", `"a"`, "true"} {
		for _, end := range []int{int(maxBatchBytes), int(maxBatchBytes) + 1} {
			seeds = append(seeds, []byte(strings.Repeat(" ", end-1-len(scalar))+"["+scalar+",{}]"))
		}
	}
	return seeds
}

var streamSeed = flag.Int64("stream.seed", 0, "replay one seed of TestBatchStreamRandom")

// TestBatchStreamRandom holds the endpoint to FuzzBatchStream's properties
// over batches assembled from valid sessions, randomElement's near-sessions
// and scalars, with the separators and brackets sometimes wrong.
func TestBatchStreamRandom(t *testing.T) {
	rig := newStreamRig(t)
	_, prep := prepTest(t)
	seeds := []int64{*streamSeed}
	if *streamSeed == 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= 400; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		var body []byte
		often := func(s, rarely string) {
			if rng.Intn(12) == 0 {
				s = rarely
			}
			body = append(body, s...)
		}
		often("[", []string{"", "{", "[[", " "}[rng.Intn(4)])
		for i, n := 0, rng.Intn(8); i < n; i++ {
			if i > 0 {
				often(",", []string{"", ",,", " ", ":"}[rng.Intn(4)])
			}
			switch rng.Intn(4) {
			case 0:
				body = append(body, randomElement(rng)...)
			case 1:
				often("null", []string{"12", `"s"`, "true", "[]", "-"}[rng.Intn(5)])
			default:
				up := sampleUpload(prep, fmt.Sprintf("w%d", rng.Intn(5)), questionnaire.ChoiceSame)
				if rng.Intn(2) == 0 {
					up.Responses[0].Comment = strings.Repeat("wörd ", rng.Intn(40))
				}
				body = append(body, mustMarshal(t, up)...)
			}
		}
		often("]", []string{"", "}", "]]", "] x"}[rng.Intn(4)])
		if rng.Intn(4) == 0 {
			body = body[:rng.Intn(len(body)+1)]
		}
		rig.check(t, body)
		if t.Failed() {
			t.Fatalf("seed %d (replay: go test ./internal/server -run TestBatchStreamRandom -stream.seed=%d): %q", seed, seed, body)
		}
	}
}

// exactSession is a valid session whose JSON is exactly size bytes.
func exactSession(t *testing.T, prep *aggregator.Prepared, worker string, size int) []byte {
	t.Helper()
	up := sampleUpload(prep, worker, questionnaire.ChoiceLeft)
	up.Responses[0].Comment = "x"
	up.Responses[0].Comment = strings.Repeat("x", 1+size-len(mustMarshal(t, up)))
	payload := mustMarshal(t, up)
	if len(payload) != size {
		t.Fatalf("rendered %d bytes, want %d", len(payload), size)
	}
	return payload
}

// An element's size is its own bytes. It used to count the separator and the
// whitespace before it, so a session of exactly the per-session budget was
// stored by POST /sessions and as a batch's first element and refused with
// 413 as any later one — and behind a router the answer depended on where
// the split put it.
func TestBatchElementSizeIsItsOwn(t *testing.T) {
	srv, prep := prepTest(t)
	atBudget := func(worker string) []byte { return exactSession(t, prep, worker, maxSessionBytes) }
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", atBudget("single"), nil); rec.Code != http.StatusCreated {
		t.Errorf("POST /sessions of exactly %d bytes: %d", maxSessionBytes, rec.Code)
	}
	body := bytes.Join([][]byte{
		[]byte("[ "), atBudget("first"), []byte(" ,\n\t "), atBudget("second"), []byte(" , "),
		exactSession(t, prep, "over", maxSessionBytes+1), []byte(","), atBudget("last"), []byte(" ]"),
	}, nil)
	rec, report := postBatch(t, srv, body, false)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, report.Error)
	}
	for i, want := range []int{201, 201, 413, 201} {
		if got := report.Results[i].Status; got != want {
			t.Errorf("element %d: %d, want %d", i, got, want)
		}
	}
}

// A long run of whitespace costs one look at each byte. Under json.Decoder,
// which rescanned the run from its start on every small refill a gzip reader
// hands out, 32 MiB of spaces before "[]" — 32 KB on the wire, inside every
// budget — held a core for about twelve seconds. So eight times the run
// must cost about eight times as long, not the sixty-four times a rescan
// takes: a ratio measured in one run, which neither the host's speed nor
// the race detector moves.
func TestBatchWhitespaceRunIsLinear(t *testing.T) {
	_, prep := prepTest(t)
	inner := marshalBatch(t, variedUploads(t, prep, 3))
	const mib = 1 << 20
	blankMiB := gzipBytes(t, bytes.Repeat([]byte{' '}, mib))
	// fastest posts a batch of n bytes, all of them spaces but the three
	// sessions at the end, to a fresh node three times and returns the
	// least time it took. The spaces are gzip members of a MiB each, which
	// a gzip reader inflates as one stream: one compression for any n.
	fastest := func(n int) (least time.Duration) {
		wire := append(bytes.Repeat(blankMiB, n/mib-1), gzipBytes(t, append(bytes.Repeat([]byte{' '}, mib-len(inner)), inner...))...)
		if len(wire) > 64<<10 {
			t.Fatalf("%d bytes on the wire", len(wire))
		}
		for i := 0; i < 3; i++ {
			srv, _ := prepTest(t)
			req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions:batch", bytes.NewReader(wire))
			req.Header.Set("Content-Encoding", "gzip")
			rec := httptest.NewRecorder()
			start := time.Now()
			srv.ServeHTTP(rec, req)
			if took := time.Since(start); i == 0 || took < least {
				least = took
			}
			var report BatchReport
			if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil || rec.Code != http.StatusOK || report.Accepted != 3 {
				t.Fatalf("%d MiB: status %d, report %+v (%v)", n/mib, rec.Code, report, err)
			}
		}
		return least
	}
	short, long := fastest(4*mib), fastest(MaxBatchBytes)
	ratio := float64(long) / float64(short)
	t.Logf("%d MiB of whitespace took %v, 4 MiB %v: %.1fx", MaxBatchBytes/mib, long, short, ratio)
	if ratio > 24 {
		t.Errorf("%d MiB of whitespace took %v, 4 MiB %v: %.1fx for 8x the bytes", MaxBatchBytes/mib, long, short, ratio)
	}
}
