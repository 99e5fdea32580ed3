package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/server"
)

const batchPath = "/api/tests/" + ringTestID + "/sessions:batch"

// postTo hands a handler one POST directly — no client, so a refusal that
// does not read the body cannot turn into a transport error.
func postTo(h http.Handler, path string, body []byte, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// fixtureBatch is n valid sessions of the fixture study, worker ids under
// prefix, as a JSON array.
func fixtureBatch(t testing.TB, prep *aggregator.Prepared, prefix string, n int) ([]server.SessionUpload, []byte) {
	t.Helper()
	batch := make([]server.SessionUpload, n)
	for i := range batch {
		batch[i] = sampleUpload(prep, fmt.Sprintf("%s-w%02d", prefix, i), questionnaire.ChoiceLeft)
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	return batch, payload
}

func elementStatuses(t *testing.T, body []byte) []int {
	t.Helper()
	var rep server.BatchReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("batch report: %v: %s", err, body)
	}
	out := make([]int, len(rep.Results))
	for i, er := range rep.Results {
		if er.Index != i {
			t.Errorf("result %d carries index %d", i, er.Index)
		}
		out[i] = er.Status
	}
	return out
}

// grammarEdges are sessions at the edges of the JSON grammar, which the
// router's walk checks itself: want is a single node's status for a batch of
// that one element.
var grammarEdges = []struct {
	name, elem string
	want       int
}{
	{"nested 10 001 deep", `{"worker_id":"deep","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, http.StatusBadRequest},
	{"nested exactly 10 000 deep", `{"worker_id":"deep","x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, http.StatusOK},
	{"1e999, valid JSON and no float64", `{"worker_id":"big","x":1e999}`, http.StatusOK},
	{"cut inside a \\u escape", `{"worker_id":"\u12`, http.StatusBadRequest},
	{"a lone surrogate in worker_id", `{"worker_id":"\ud800"}`, http.StatusOK},
	{"a raw control byte in worker_id", "{\"worker_id\":\"a\x01b\"}", http.StatusBadRequest},
	{"bytes after the value", `{"worker_id":"t"} x`, http.StatusBadRequest},
}

// TestRouterBatchMatchesNode: whatever a batch request looks like, a router
// over three nodes answers it with the status — and, when that is 200, the
// per-element statuses and every byte of the report — of a single node. The
// first rows are the drifts this table was written to close.
func TestRouterBatchMatchesNode(t *testing.T) {
	f := newFixture(t, 3)
	single, _, _ := prepNode(t)
	valid := func(prefix string, n int) []byte {
		_, payload := fixtureBatch(t, f.prep, prefix, n)
		return payload
	}
	gz := func(payload []byte) []byte { return gzipped(t, payload) }
	// bulk is a well-formed batch of more than n bytes, in 64 elements that
	// each fit a session's budget.
	bulk := func(n int) []byte {
		elem := `{"comment":"` + strings.Repeat("x", n/64) + `"}`
		return []byte("[" + strings.Repeat(elem+",", 63) + elem + "]")
	}
	dup := valid("dup", 3)
	// sized is a valid session of exactly n bytes; a node's per-session
	// budget is 1 MiB.
	sized := func(worker string, n int) string {
		up := sampleUpload(f.prep, worker, questionnaire.ChoiceLeft)
		up.Responses[0].Comment = "x"
		one, _ := json.Marshal(up)
		up.Responses[0].Comment = strings.Repeat("x", 1+n-len(one))
		payload, err := json.Marshal(up)
		if err != nil || len(payload) != n {
			t.Fatalf("a session of %d bytes, want %d (%v)", len(payload), n, err)
		}
		return string(payload)
	}
	// Every byte of a node's inflated budget, most of it whitespace up front.
	behindSpaces := valid("spaces", 4)
	behindSpaces = append(bytes.Repeat([]byte{' '}, server.MaxBatchBytes-len(behindSpaces)), behindSpaces...)

	type row struct {
		name string
		body []byte
		hdr  []string
		want int
	}
	filled := strings.Repeat("{},", server.MaxBatchSessions-1) + "{}" // every element the cap allows
	rows := []row{
		// A node's stream meets the element cap before whatever follows it;
		// json.Valid used to read the whole body first and answer 400.
		{"over the element cap, then a syntax error", []byte("[" + filled + ",{]"), nil, http.StatusRequestEntityTooLarge},
		{"a syntax error inside the element cap", []byte("[" + filled[:len(filled)-1] + "]"), nil, http.StatusBadRequest},
		{"at the element cap, then junk", []byte("[" + filled + " x"), nil, http.StatusRequestEntityTooLarge},
		{"at the element cap, then a brace", []byte("[" + filled + "}"), nil, http.StatusBadRequest},
		{"at the element cap, then nothing", []byte("[" + filled), nil, http.StatusBadRequest},
		// An element's size is its own bytes: a node used to count the
		// separator before it, so which of these it refused depended on where
		// the split had put them.
		{"sessions of exactly the per-session budget, and one a byte over", []byte("[ " + sized("at-0", 1<<20) + " ,\n " + sized("at-1", 1<<20) + " , " +
			sized("over", 1<<20+1) + "," + sized("at-2", 1<<20) + "\t,\t" + sized("at-3", 1<<20) + " ]"), nil, http.StatusOK},
		// A node used to rescan a whitespace run on every refill: 12 s for this
		// body, which the router passed on without a word.
		{"32 MiB of whitespace, 32 KB on the wire", gz(behindSpaces), []string{"Content-Encoding", "gzip"}, http.StatusOK},
		// (a) The old split decoded one value and ignored what followed.
		{"bytes after the array", append(valid("trail", 4), " x"...), nil, http.StatusBadRequest},
		{"a second array", append(valid("twice", 2), "[]"...), nil, http.StatusBadRequest},
		// (b) The router compared Content-Encoding with ==.
		{"Content-Encoding: GZIP", gz(valid("upper", 5)), []string{"Content-Encoding", "GZIP"}, http.StatusOK},
		// (c) The router inflated up to its own 64 MiB backstop.
		{"gzip inflating past the node's budget", gz(bulk(server.MaxBatchBytes)), []string{"Content-Encoding", "gzip"}, http.StatusRequestEntityTooLarge},
		{"plain body past the node's budget", bulk(server.MaxBatchBytes), nil, http.StatusRequestEntityTooLarge},
		// Found on the way: any inflate error used to answer 413.
		{"gzip stream cut short", gz(valid("cut", 6))[:40], []string{"Content-Encoding", "gzip"}, http.StatusBadRequest},

		{"plain", valid("plain", 9), nil, http.StatusOK},
		{"gzip", gz(valid("gzip", 9)), []string{"Content-Encoding", "gzip"}, http.StatusOK},
		{"replayed", dup, nil, http.StatusOK},
		{"replayed again", dup, nil, http.StatusOK},
		{"one bad element among good ones", []byte(strings.Replace(string(valid("bad", 4)), `"bad-w02"`, `""`, 1)), nil, http.StatusOK},
		{"elements that are not sessions", []byte(`[{},{"worker_id":"x"}]`), nil, http.StatusOK},
		{"empty array", []byte(`[]`), nil, http.StatusOK},
		{"null", []byte(`null`), nil, http.StatusBadRequest},
		{"an object", []byte(`{}`), nil, http.StatusBadRequest},
		{"malformed", []byte(`[{"worker_id":`), nil, http.StatusBadRequest},
		{"empty body", nil, nil, http.StatusBadRequest},
		{"not gzip at all", []byte("junk"), []string{"Content-Encoding", "gzip"}, http.StatusBadRequest},
		{"gzip of something malformed", gz([]byte(`[{]`)), []string{"Content-Encoding", "gzip"}, http.StatusBadRequest},
		{"an encoding nobody decodes", valid("br", 2), []string{"Content-Encoding", "br"}, http.StatusOK},
		{"over the element cap", []byte("[" + filled + ",{}]"), nil, http.StatusRequestEntityTooLarge},
	}
	for _, edge := range grammarEdges {
		rows = append(rows, row{edge.name, []byte("[" + edge.elem + "]"), nil, edge.want})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			node := postTo(single, batchPath, tc.body, tc.hdr...)
			routed := postTo(f.router, batchPath, tc.body, tc.hdr...)
			if node.Code != tc.want {
				t.Errorf("a single node answers %d, the table says %d: %s", node.Code, tc.want, node.Body)
			}
			if routed.Code != node.Code {
				t.Fatalf("the router answers %d, a single node %d\nrouter: %.300s\nnode: %.300s", routed.Code, node.Code, routed.Body, node.Body)
			}
			if node.Code != http.StatusOK {
				return
			}
			got, want := elementStatuses(t, routed.Body.Bytes()), elementStatuses(t, node.Body.Bytes())
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("element statuses through the router %v, on a single node %v", got, want)
			}
			if !bytes.Equal(routed.Body.Bytes(), node.Body.Bytes()) {
				t.Errorf("the router's report differs from a single node's\nrouter: %.300s\nnode: %.300s", routed.Body, node.Body)
			}
		})
	}
}

// TestRouterUploadMatchesNode: the same edges as one headerless upload, whose
// worker id the router reads with the batch split's walk. It routes a body it
// cannot read somewhere all the same, and the shard's answer is a node's.
func TestRouterUploadMatchesNode(t *testing.T) {
	f := newFixture(t, 3)
	single, _, _ := prepNode(t)
	const path = "/api/tests/" + ringTestID + "/sessions"
	for _, edge := range grammarEdges {
		for _, body := range []string{edge.elem, "[" + edge.elem + "]", " " + edge.elem + "\n"} {
			node, routed := postTo(single, path, []byte(body)), postTo(f.router, path, []byte(body))
			if routed.Code != node.Code {
				t.Errorf("%s (%.40q): the router answers %d, a single node %d\nrouter: %.300s\nnode: %.300s", edge.name, body, routed.Code, node.Code, routed.Body, node.Body)
			}
		}
	}
}

// TestRouterUploadRouting: with the worker header the router routes by it
// and never reads the body; without it, by the id in the body, to the shard
// the batch path picks for the same session — so a worker's duplicate is a
// 409 whichever endpoint carried the first copy. A session whose id key is
// escaped, in capitals or repeated is refused on either endpoint, wherever
// it lands, and stored nowhere.
func TestRouterUploadRouting(t *testing.T) {
	f := newFixture(t, 3)
	sessionsURL := f.routerTS.URL + "/api/tests/" + ringTestID + "/sessions"
	holders := func(worker string) (held []int) {
		for i, db := range f.dbs {
			if db.Collection(aggregator.ResponsesCollection).CountEq("worker_id", worker) > 0 {
				held = append(held, i)
			}
		}
		return held
	}

	// Two ids on different shards: the body names one, the header the other.
	inBody, inHeader := "routing-body", ""
	for i := 0; inHeader == ""; i++ {
		if id := fmt.Sprintf("routing-hdr-%d", i); f.router.Ring().Owner(SessionKey(ringTestID, id)) != f.router.Ring().Owner(SessionKey(ringTestID, inBody)) {
			inHeader = id
		}
	}
	resp := postJSON(t, sessionsURL, sampleUpload(f.prep, inBody, questionnaire.ChoiceLeft), http.Header{guard.WorkerIDHeader: {inHeader}})
	resp.Body.Close()
	if want := []int{f.router.Ring().Owner(SessionKey(ringTestID, inHeader))}; resp.StatusCode != http.StatusCreated || fmt.Sprint(holders(inBody)) != fmt.Sprint(want) {
		t.Errorf("upload with the header = %d, stored on shards %v, want the header's owner %v", resp.StatusCode, holders(inBody), want)
	}

	for i, respell := range []func(string) string{
		func(s string) string { return s },
		func(s string) string { return strings.Replace(s, `"worker_id":`, `"worker\u005fid":`, 1) },
		func(s string) string { return strings.Replace(s, `"worker_id":`, `"WORKER_ID" : `, 1) },
		func(s string) string { return strings.Replace(s, `{`, `{"worker_id":"overridden",`, 1) },
	} {
		single, batch := fmt.Sprintf("single-first-%d", i), fmt.Sprintf("batch-first-%d", i)
		body := func(worker string) []byte {
			payload, err := json.Marshal(sampleUpload(f.prep, worker, questionnaire.ChoiceRight))
			if err != nil {
				t.Fatal(err)
			}
			return []byte(respell(string(payload)))
		}
		post := func(worker string, asBatch bool) int {
			if !asBatch {
				resp := postJSONBytes(t, sessionsURL, body(worker))
				resp.Body.Close()
				return resp.StatusCode
			}
			rec := postTo(f.router, batchPath, append(append([]byte{'['}, body(worker)...), ']'))
			if rec.Code != http.StatusOK {
				t.Fatalf("batch of one = %d: %s", rec.Code, rec.Body)
			}
			return elementStatuses(t, rec.Body.Bytes())[0]
		}
		want, stored := [2]int{http.StatusCreated, http.StatusConflict}, 1
		if i > 0 {
			want, stored = [2]int{http.StatusBadRequest, http.StatusBadRequest}, 0
		}
		if first, second := post(single, false), post(single, true); [2]int{first, second} != want {
			t.Errorf("spelling %d: headerless upload then batch = %d, %d; want %v", i, first, second, want)
		}
		if first, second := post(batch, true), post(batch, false); [2]int{first, second} != want {
			t.Errorf("spelling %d: batch then headerless upload = %d, %d; want %v", i, first, second, want)
		}
		for _, worker := range []string{single, batch} {
			if held := holders(worker); len(held) != stored {
				t.Errorf("spelling %d: worker %s is stored on shards %v", i, worker, held)
			}
		}
	}
}

// TestMisspeltSessionsAreRefused: the four misspellings clients have sent —
// a control's answer under "choice" rather than "got", a behaviour's keys in
// snake_case, a key no struct has, and worker_id in capitals — each of which
// encoding/json would store as a session short of a field. Each is a 400
// naming the rule, the key and its byte on both endpoints, on a node and
// through a router, and nothing of it is stored: the session list is empty
// and every fold document counts no session.
func TestMisspeltSessionsAreRefused(t *testing.T) {
	f := newFixture(t, 3)
	single, _, _ := prepNode(t)
	node := httptest.NewServer(single)
	t.Cleanup(node.Close)
	const sessions = "/api/tests/" + ringTestID + "/sessions"
	for _, tc := range []struct {
		name, old, new string
		last           bool // respell the key's last occurrence, not its first
		rule           string
	}{
		{"choice for got", `"got":`, `"choice":`, true, "unknown key"},
		{"snake_case behaviour keys", `"TimeOnTaskMillis":`, `"time_on_task_millis":`, false, "unknown key"},
		{"a key no struct has", `{"test_id":`, `{"extra":1,"test_id":`, false, "unknown key"},
		{"worker_id in capitals", `"worker_id":`, `"WORKER_ID":`, false, "case or escape in key"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := json.Marshal(sampleUpload(f.prep, "misspelt", questionnaire.ChoiceLeft))
			if err != nil {
				t.Fatal(err)
			}
			at := bytes.Index(payload, []byte(tc.old))
			if tc.last {
				at = bytes.LastIndex(payload, []byte(tc.old))
			}
			body := slices.Concat(payload[:at], []byte(tc.new), payload[at+len(tc.old):])
			key, _, _ := strings.Cut(strings.TrimPrefix(tc.new, "{"), ":")
			at = bytes.Index(body[at:], []byte(key)) + at
			want := fmt.Sprintf("decoding session: %s %s at byte %d", tc.rule, key, at)
			for _, h := range []struct {
				name    string
				handler http.Handler
				url     string
			}{{"node", single, node.URL}, {"router", f.router, f.routerTS.URL}} {
				var answer struct{ Error string }
				rec := postTo(h.handler, sessions, body)
				if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil || rec.Code != http.StatusBadRequest || answer.Error != want {
					t.Errorf("%s: POST /sessions = %d %s, want 400 %q", h.name, rec.Code, rec.Body, want)
				}
				rec = postTo(h.handler, batchPath, slices.Concat([]byte("["), body, []byte("]")))
				var report server.BatchReport
				if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil || rec.Code != http.StatusOK || len(report.Results) != 1 {
					t.Fatalf("%s: batch of one = %d %s", h.name, rec.Code, rec.Body)
				}
				if res := report.Results[0]; res.Status != http.StatusBadRequest || res.Error != want || res.WorkerID != "" {
					t.Errorf("%s: batch element %+v, want 400 %q and no worker id", h.name, res, want)
				}
				if resp, list := fetch(t, h.url+sessions); resp.StatusCode != http.StatusOK || strings.TrimSpace(string(list)) != "[]" {
					t.Errorf("%s: session list = %d %s, want []", h.name, resp.StatusCode, list)
				}
			}
			for _, ts := range append([]*httptest.Server{node}, f.nodeTS...) {
				_, doc := fetch(t, ts.URL+"/api/tests/"+ringTestID+"/fold")
				if fs, err := server.DecodeFoldState(doc); err != nil || fs.Sessions != 0 {
					t.Errorf("fold document %s (%v), want 0 sessions", doc, err)
				}
			}
		})
	}
}

// stubFleet is a router over three stub shards; handler serves all of them
// and is told which it is.
func stubFleet(t *testing.T, handler func(shard int, w http.ResponseWriter, r *http.Request)) *Router {
	t.Helper()
	specs := make([]Spec, 3)
	for i := range specs {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { handler(i, w, r) }))
		t.Cleanup(ts.Close)
		specs[i] = Spec{Name: fmt.Sprintf("shard-%d", i), Primary: ts.URL}
	}
	rt, err := New(Config{Shards: specs, Policy: failover.Policy{Retries: 1, Backoff: time.Millisecond}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// acceptSubBatch answers a sub-batch the way a node that stores every
// element would.
func acceptSubBatch(w http.ResponseWriter, r *http.Request) {
	var elems []json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&elems); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rep := server.BatchReport{TestID: ringTestID, Accepted: len(elems)}
	for i, raw := range elems {
		id, _ := codecWorkerID(raw)
		rep.Results = append(rep.Results, server.BatchElementResult{Index: i, WorkerID: id, Status: http.StatusCreated})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// spreadBatch is a script-shaped batch with elements for every shard of rt.
func spreadBatch(t *testing.T, rt *Router) []byte {
	t.Helper()
	body := scriptBatch(t, ringTestID, 24)
	subs, err := new(batchSplit).split(rt.Ring(), ringTestID, body)
	if err != nil {
		t.Fatal(err)
	}
	for s, sub := range subs {
		if sub.n == 0 {
			t.Fatalf("shard %d owns none of the batch; pick other worker ids", s)
		}
	}
	return body
}

// TestRouterBatchDispatchIsConcurrent: every shard holds its answer until
// all three sub-batches have arrived, which a router sending them one after
// another can never satisfy: it would hang.
func TestRouterBatchDispatchIsConcurrent(t *testing.T) {
	var arrived atomic.Int32
	all := make(chan struct{})
	rt := stubFleet(t, func(_ int, w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == 3 {
			close(all)
		}
		<-all
		acceptSubBatch(w, r)
	})
	rec := postTo(rt, batchPath, spreadBatch(t, rt))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body)
	}
	for i, status := range elementStatuses(t, rec.Body.Bytes()) {
		if status != http.StatusCreated {
			t.Errorf("element %d = %d", i, status)
		}
	}
}

// TestRouterBatchRelaysShardRefusal: one shard's stream-level refusal of its
// sub-batch is the batch's answer, body and headers.
func TestRouterBatchRelaysShardRefusal(t *testing.T) {
	rt := stubFleet(t, func(shard int, w http.ResponseWriter, r *http.Request) {
		if shard != 1 {
			acceptSubBatch(w, r)
			return
		}
		w.Header().Set("X-Refused-By", "shard-1")
		http.Error(w, `{"error":"this shard will not take it"}`, http.StatusUnprocessableEntity)
	})
	rec := postTo(rt, batchPath, spreadBatch(t, rt))
	if rec.Code != http.StatusUnprocessableEntity || rec.Header().Get("X-Refused-By") != "shard-1" || !strings.Contains(rec.Body.String(), "will not take it") {
		t.Errorf("batch = %d, X-Refused-By=%q: %s", rec.Code, rec.Header().Get("X-Refused-By"), rec.Body)
	}
}

// TestRouterBatchCancelReleasesSubBatches: a client that gives up releases
// every sub-batch still in flight, and the router's handler returns.
func TestRouterBatchCancelReleasesSubBatches(t *testing.T) {
	entered, released := make(chan int, 3), make(chan int, 3)
	rt := stubFleet(t, func(shard int, _ http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // a server watches for the peer's hang-up only once the body is read
		entered <- shard
		<-r.Context().Done()
		released <- shard
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, batchPath, bytes.NewReader(spreadBatch(t, rt))).WithContext(ctx)
	returned := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		returned <- rec.Code
	}()
	wait := func(ch <-chan int, n int) {
		for i := 0; i < n; i++ {
			<-ch
		}
	}
	wait(entered, 3) // every sub-batch in flight
	cancel()
	wait(released, 3) // each released by the cancel
	<-returned        // and the router's handler returned
}

// downLink fails every round trip while down is set.
type downLink struct{ down *atomic.Bool }

func (l downLink) RoundTrip(req *http.Request) (*http.Response, error) {
	if l.down.Load() {
		return nil, errors.New("link down")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRouterBatchShardDown: with one shard unreachable the whole batch is a
// 503 the client retries, though the other shards have committed their
// share; the retry answers 409 for those and 201 for the rest, merged in the
// caller's order.
func TestRouterBatchShardDown(t *testing.T) {
	const victim = 1
	var down atomic.Bool
	specs := make([]Spec, 3)
	var prep *aggregator.Prepared
	for i := range specs {
		var srv *server.Server
		srv, _, prep = prepNode(t)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		specs[i] = Spec{Name: fmt.Sprintf("shard-%d", i), Primary: ts.URL}
	}
	rt, err := New(Config{
		Shards: specs, Policy: failover.Policy{Retries: 1, Backoff: time.Millisecond}, Timeout: 5 * time.Second,
		Transport: func(name, _ string) http.RoundTripper {
			if name == specs[victim].Name {
				return downLink{&down}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, payload := fixtureBatch(t, prep, "down", 24)

	down.Store(true)
	rec := postTo(rt, batchPath, payload)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("batch with shard %d down = %d, Retry-After=%q: %s", victim, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	down.Store(false)
	rec = postTo(rt, batchPath, payload)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry = %d: %s", rec.Code, rec.Body)
	}
	var rep server.BatchReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || len(rep.Results) != len(batch) {
		t.Fatalf("retry report: %v: %s", err, rec.Body)
	}
	stored := 0
	for i, er := range rep.Results {
		want := http.StatusConflict
		if rt.Ring().Owner(SessionKey(ringTestID, batch[i].WorkerID)) == victim {
			want = http.StatusCreated
			stored++
		}
		if er.Index != i || er.WorkerID != batch[i].WorkerID || er.Status != want {
			t.Errorf("retry element %d = %+v, want worker %s status %d", i, er, batch[i].WorkerID, want)
		}
	}
	if stored == 0 || stored == len(batch) || rep.Accepted != stored || rep.Rejected != len(batch)-stored {
		t.Errorf("retry accepted %d, rejected %d; the victim owns %d of %d", rep.Accepted, rep.Rejected, stored, len(batch))
	}
}

// cannedShards answers every sub-batch of one known batch with the report a
// storing node would send, rendered ahead of time: the benchmark then counts
// the router's work and none of a shard's.
type cannedShards map[string][]byte // by URL host

func (c cannedShards) RoundTrip(req *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, req.Body)
	req.Body.Close()
	report := c[req.URL.Host]
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(bytes.NewReader(report)), ContentLength: int64(len(report)), Request: req,
	}, nil
}

// cannedRouter is a router over three shards, shard-0 to shard-2, that
// answer as canned says.
func cannedRouter(tb testing.TB, canned cannedShards) *Router {
	specs := make([]Spec, 3)
	for i := range specs {
		host := fmt.Sprintf("shard-%d", i)
		specs[i] = Spec{Name: host, Primary: "http://" + host}
	}
	rt, err := New(Config{Shards: specs, Transport: func(string, string) http.RoundTripper { return canned }})
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// TestRouterReadsReportsAsBefore: a one-element batch whose shard answers
// 200 with the row's report. A report the codec reads merges into the answer
// encoding/json's reader and encoder made of it; any other gets the 503 the
// router has always answered for a report encoding/json could not read. The
// codec refuses some reports encoding/json reads, none of which a node
// writes.
func TestRouterReadsReportsAsBefore(t *testing.T) {
	const corrupt = `{"error":"batch upload unavailable: corrupt sub-batch report"}` + "\n"
	rows := []struct {
		name, report string
		want         int
	}{
		{"a node's report", `{"test_id":"t","accepted":1,"rejected":0,"results":[{"index":0,"worker_id":"w","status":201}]}` + "\n", http.StatusOK},
		{"a refused element", `{"test_id":"t","accepted":0,"rejected":1,"results":[{"index":0,"status":400,"error":"decoding session: unknown key \"x\" at byte 1 <&>"}]}`, http.StatusOK},
		{"spaced, reordered, escaped, another index", ` {"results": [ {"status":409, "error":"w\u00e9 \"dup\"", "worker_id":"\u0077", "index":7} ], "rejected":1 } `, http.StatusOK},
		{"no results", `{"test_id":"t","accepted":0,"rejected":0,"results":[]}`, http.StatusServiceUnavailable},
		{"results null", `{"test_id":"t","results":null}`, http.StatusServiceUnavailable},
		{"two results for one element", `{"results":[{"index":0,"status":201},{"index":1,"status":201}]}`, http.StatusServiceUnavailable},
		{"cut short", `{"test_id":"t","results":[{"index":0,"status":201}`, http.StatusServiceUnavailable},
		{"not JSON", `<html>bad gateway</html>`, http.StatusServiceUnavailable},
		{"bytes after the report", `{"results":[{"index":0,"status":201}]} {}`, http.StatusServiceUnavailable},
		{"a float status", `{"results":[{"index":0,"status":201.5}]}`, http.StatusServiceUnavailable},
		{"an unknown key", `{"results":[{"index":0,"status":201,"shard":2}]}`, http.StatusServiceUnavailable},
		{"a key in capitals", `{"results":[{"index":0,"STATUS":201}]}`, http.StatusServiceUnavailable},
		{"a repeated key", `{"results":[{"index":0,"status":409,"status":201}]}`, http.StatusServiceUnavailable},
		{"a null element", `{"results":[null]}`, http.StatusServiceUnavailable},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			canned := cannedShards{"shard-0": []byte(row.report), "shard-1": []byte(row.report), "shard-2": []byte(row.report)}
			rec := postTo(cannedRouter(t, canned), "/api/tests/t/sessions:batch", []byte(`[{"worker_id":"w"}]`))
			if rec.Code != row.want {
				t.Fatalf("the router answers %d, want %d: %s", rec.Code, row.want, rec.Body)
			}
			want := corrupt
			if row.want == http.StatusOK {
				var rep server.BatchReport
				if err := json.Unmarshal([]byte(row.report), &rep); err != nil {
					t.Fatal(err)
				}
				rep.Results[0].Index = 0
				merged, err := json.Marshal(server.BatchReport{TestID: "t", Accepted: rep.Accepted, Rejected: rep.Rejected, Results: rep.Results})
				if err != nil {
					t.Fatal(err)
				}
				want = string(merged) + "\n"
			} else if got := rec.Header().Get("Retry-After"); got != "1" {
				t.Errorf("Retry-After %q, want 1", got)
			}
			if rec.Body.String() != want {
				t.Errorf("the router answers\n%s\nwant\n%s", rec.Body, want)
			}
		})
	}
}

// BenchmarkRouterBatchSplit is one gzip batch of 100 sessions of the
// end-to-end script's shape through a router over three stub shards: read,
// inflate, validate, split, dispatch, merge the three reports, encode the
// answer. No sockets and no shard work, so allocs/op repeats;
// scripts/bench_delta.sh holds it to BENCH_server.json.
func BenchmarkRouterBatchSplit(b *testing.B) {
	const testID = "bench-test"
	canned := cannedShards{}
	rt := cannedRouter(b, canned)
	plain := scriptBatch(b, testID, 100)
	sessions, err := server.DecodeSessionList(plain)
	if err != nil {
		b.Fatal(err)
	}
	reports := make([]server.BatchReport, 3)
	for _, u := range sessions {
		rep := &reports[rt.Ring().Owner(SessionKey(testID, u.WorkerID))]
		rep.TestID = testID
		rep.Results = append(rep.Results, server.BatchElementResult{Index: rep.Accepted, WorkerID: u.WorkerID, Status: http.StatusCreated})
		rep.Accepted++
	}
	for i, rep := range reports {
		if canned[fmt.Sprintf("shard-%d", i)], err = json.Marshal(rep); err != nil {
			b.Fatal(err)
		}
	}
	body := gzipped(b, plain)
	path := "/api/tests/" + testID + "/sessions:batch"
	post := func() *httptest.ResponseRecorder { return postTo(rt, path, body, "Content-Encoding", "gzip") }
	var rep server.BatchReport
	if rec := post(); json.Unmarshal(rec.Body.Bytes(), &rep) != nil || rep.Accepted != 100 || len(rep.Results) != 100 {
		b.Fatalf("batch = %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(); rec.Code != http.StatusOK {
			b.Fatalf("batch = %d", rec.Code)
		}
	}
}
