package shard

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

const ringTestID = "shard-test"

// prepNode prepares one storage node with the fixture study. Preparation
// is deterministic (same test, same seeded sites), so every node serves
// identical page ids — the fleet-wide provisioning the router assumes.
func prepNode(t testing.TB) (*server.Server, *store.DB, *aggregator.Prepared) {
	t.Helper()
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test := &params.Test{
		TestID:          ringTestID,
		WebpageNum:      2,
		TestDescription: "router test",
		ParticipantNum:  10,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "a", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: "b", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
	sites := map[string]*webgen.Site{
		"a": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 12}),
		"b": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 22}),
	}
	prep, err := agg.Prepare(test, sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	return srv, db, prep
}

// fixture is an N-shard deployment: real storage nodes behind one router.
type fixture struct {
	router   *Router
	routerTS *httptest.Server
	nodeTS   []*httptest.Server
	dbs      []*store.DB
	prep     *aggregator.Prepared
	reg      *obs.Registry
}

func newFixture(t testing.TB, n int) *fixture {
	t.Helper()
	f := &fixture{reg: obs.NewRegistry()}
	specs := make([]Spec, n)
	for i := 0; i < n; i++ {
		srv, db, prep := prepNode(t)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		f.nodeTS = append(f.nodeTS, ts)
		f.dbs = append(f.dbs, db)
		f.prep = prep
		specs[i] = Spec{Name: fmt.Sprintf("shard-%d", i), Primary: ts.URL}
	}
	rt, err := New(Config{
		Shards: specs,
		Policy: failover.Policy{Retries: 2, Backoff: time.Millisecond}, Timeout: 5 * time.Second,
		Registry: f.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.routerTS = httptest.NewServer(rt)
	t.Cleanup(f.routerTS.Close)
	return f
}

func sampleUpload(prep *aggregator.Prepared, workerID string, choice questionnaire.Choice) server.SessionUpload {
	up := server.SessionUpload{
		TestID:   ringTestID,
		WorkerID: workerID,
		Demographics: crowd.Demographics{
			Gender: "female", AgeBand: "25-34", Country: "US", TechAbility: 4,
		},
	}
	for _, p := range prep.RealPages() {
		up.Responses = append(up.Responses, questionnaire.Response{
			TestID: ringTestID, WorkerID: workerID, PageID: p.ID,
			QuestionID: "q0", Choice: choice, DurationMillis: 20000,
		})
		up.Behaviors = append(up.Behaviors, crowd.Behavior{TimeOnTaskMillis: 20000, CreatedTabs: 1, ActiveTabSwitches: 3})
	}
	for _, p := range prep.ControlPages() {
		up.Controls = append(up.Controls, quality.ControlOutcome{
			PageID: p.ID, Expected: p.Expected, Got: p.Expected,
		})
		up.Behaviors = append(up.Behaviors, crowd.Behavior{TimeOnTaskMillis: 15000, CreatedTabs: 1, ActiveTabSwitches: 2})
	}
	return up
}

func postJSON(t *testing.T, url string, v any, hdr http.Header) *http.Response {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vv := range hdr {
		req.Header[k] = vv
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func fetch(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestRouterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty shard list should fail")
	}
	if _, err := New(Config{Shards: []Spec{{Name: "x"}}}); err == nil {
		t.Error("shard without a primary URL should fail")
	}
	if _, err := New(Config{Shards: []Spec{{Primary: "http://a"}, {Primary: "http://a"}}}); err == nil {
		t.Error("duplicate ring identity should fail")
	}
}

func TestRouterProxyBasics(t *testing.T) {
	f := newFixture(t, 3)

	resp, body := fetch(t, f.routerTS.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"router"`)) {
		t.Errorf("healthz = %d %s", resp.StatusCode, body)
	}

	var info server.TestInfo
	resp, body = fetch(t, f.routerTS.URL+"/api/tests/"+ringTestID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("test info = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &info); err != nil || info.TestID != ringTestID {
		t.Fatalf("info = %s (err %v)", body, err)
	}

	// Page files proxy through the test's home shard.
	resp, body = fetch(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/pages/"+info.Pages[0].ID+"/index.html")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("kscope-left")) {
		t.Errorf("page file = %d", resp.StatusCode)
	}

	resp, _ = fetch(t, f.routerTS.URL+"/api/tests/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing test = %d, want 404", resp.StatusCode)
	}

	resp, body = fetch(t, f.routerTS.URL+"/metrics")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("kscope_shard_count")) {
		t.Errorf("metrics = %d", resp.StatusCode)
	}

	// The dashboard proxies to the home shard like any test-scoped surface.
	resp, _ = fetch(t, f.routerTS.URL+"/dashboard/"+ringTestID)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("dashboard = %d", resp.StatusCode)
	}
}

// uploadFixtureCrowd pushes a small crowd through the router (and,
// mirrored, into a single-node server when one is given).
func uploadFixtureCrowd(t *testing.T, f *fixture, n int, single *server.Server) []server.SessionUpload {
	t.Helper()
	choices := []questionnaire.Choice{questionnaire.ChoiceLeft, questionnaire.ChoiceRight, questionnaire.ChoiceLeft}
	var ups []server.SessionUpload
	for i := 0; i < n; i++ {
		up := sampleUpload(f.prep, fmt.Sprintf("w%03d", i), choices[i%len(choices)])
		ups = append(ups, up)
		hdr := http.Header{}
		if i%2 == 0 { // exercise both the header route and the body sniff
			hdr.Set(guard.WorkerIDHeader, up.WorkerID)
		}
		resp := postJSON(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/sessions", up, hdr)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %d = %d", i, resp.StatusCode)
		}
		if single != nil {
			payload, _ := json.Marshal(up)
			req := httptest.NewRequest(http.MethodPost, "/api/tests/"+ringTestID+"/sessions", bytes.NewReader(payload))
			rec := httptest.NewRecorder()
			single.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				t.Fatalf("single-node upload %d = %d: %s", i, rec.Code, rec.Body.String())
			}
		}
	}
	return ups
}

// TestRouterDifferentialResults is the acceptance criterion: the router's
// scatter/gather /results over 3 shards must be byte-identical to a
// single-node deployment holding the same session set — raw merge and
// quality-controlled gather both.
func TestRouterDifferentialResults(t *testing.T) {
	f := newFixture(t, 3)
	single, _, _ := prepNode(t)
	uploadFixtureCrowd(t, f, 9, single)

	// The crowd must actually have been partitioned: the ring, not one
	// lucky shard, produced the merged answer.
	populated := 0
	for i, db := range f.dbs {
		n := db.Collection(aggregator.ResponsesCollection).CountEq("test_id", ringTestID)
		if n > 0 {
			populated++
		}
		want := 0
		for j := 0; j < 9; j++ {
			if f.router.Ring().Owner(SessionKey(ringTestID, fmt.Sprintf("w%03d", j))) == i {
				want++
			}
		}
		if n != want {
			t.Errorf("shard %d stores %d sessions, ring says %d", i, n, want)
		}
	}
	if populated < 2 {
		t.Fatalf("only %d shards hold sessions; fixture is not exercising the split", populated)
	}

	for _, q := range []string{"", "?quality=1"} {
		resp, merged := fetch(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/results"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("router results%s = %d: %s", q, resp.StatusCode, merged)
		}
		if resp.Header.Get(PartialHeader) != "" {
			t.Errorf("results%s marked partial with all shards up", q)
		}
		req := httptest.NewRequest(http.MethodGet, "/api/tests/"+ringTestID+"/results"+q, nil)
		rec := httptest.NewRecorder()
		single.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("single-node results%s = %d", q, rec.Code)
		}
		if !bytes.Equal(merged, rec.Body.Bytes()) {
			t.Errorf("results%s diverge:\nrouter      %s\nsingle-node %s", q, merged, rec.Body.Bytes())
		}
	}

	// The merged session list equals the single node's, too.
	resp, routerSessions := fetch(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/sessions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router sessions = %d", resp.StatusCode)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/tests/"+ringTestID+"/sessions", nil)
	rec := httptest.NewRecorder()
	single.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("single-node sessions = %d", rec.Code)
	}
	if !bytes.Equal(routerSessions, rec.Body.Bytes()) {
		t.Errorf("session lists diverge:\nrouter      %s\nsingle-node %s", routerSessions, rec.Body.Bytes())
	}
}

func TestRouterDuplicateUpload(t *testing.T) {
	f := newFixture(t, 3)
	up := sampleUpload(f.prep, "dup-worker", questionnaire.ChoiceLeft)
	for i, want := range []int{http.StatusCreated, http.StatusConflict} {
		resp := postJSON(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/sessions", up, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("attempt %d = %d, want %d", i, resp.StatusCode, want)
		}
	}
}

func TestRouterListTests(t *testing.T) {
	f := newFixture(t, 3)
	uploadFixtureCrowd(t, f, 5, nil)
	resp, body := fetch(t, f.routerTS.URL+"/api/tests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	var list []server.TestSummary
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].TestID != ringTestID {
		t.Fatalf("list = %+v", list)
	}
	if list[0].Sessions != 5 {
		t.Errorf("merged session count = %d, want 5", list[0].Sessions)
	}
	if list[0].PageCount == 0 {
		t.Errorf("static fields lost in merge: %+v", list[0])
	}
}

func TestRouterDeleteFanout(t *testing.T) {
	f := newFixture(t, 3)
	uploadFixtureCrowd(t, f, 6, nil)
	req, _ := http.NewRequest(http.MethodDelete, f.routerTS.URL+"/api/tests/"+ringTestID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
		Pages    int    `json:"pages"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "deleted" || rep.Sessions != 6 {
		t.Errorf("delete report = %+v (want 6 sessions summed across shards)", rep)
	}
	// Idempotent: a second sweep finds nothing anywhere -> 404 through.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("second delete = %d, want 404", resp2.StatusCode)
	}
}

func TestRouterBatchSplit(t *testing.T) {
	f := newFixture(t, 3)
	var batch []server.SessionUpload
	for i := 0; i < 8; i++ {
		batch = append(batch, sampleUpload(f.prep, fmt.Sprintf("batch-w%02d", i), questionnaire.ChoiceRight))
	}
	payload, _ := json.Marshal(batch)

	// Gzip-compressed, like the extension's batch client ships it.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(payload)
	zw.Close()
	req, _ := http.NewRequest(http.MethodPost, f.routerTS.URL+"/api/tests/"+ringTestID+"/sessions:batch", &buf)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, body)
	}
	var rep server.BatchReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 8 || len(rep.Results) != 8 {
		t.Fatalf("report = %+v", rep)
	}
	for i, er := range rep.Results {
		if er.Index != i || er.Status != http.StatusCreated || er.WorkerID != batch[i].WorkerID {
			t.Errorf("element %d = %+v (order lost in the split?)", i, er)
		}
	}

	// Replay the same batch plain-JSON: every element answers 409, in order
	// — the idempotent retry a failed split relies on.
	resp2 := postJSONBytes(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/sessions:batch", payload)
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay = %d: %s", resp2.StatusCode, body2)
	}
	var rep2 server.BatchReport
	if err := json.Unmarshal(body2, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Accepted != 0 {
		t.Errorf("replay accepted %d sessions, want 0", rep2.Accepted)
	}
	for i, er := range rep2.Results {
		if er.Index != i || er.Status != http.StatusConflict {
			t.Errorf("replay element %d = %+v, want 409", i, er)
		}
	}

	// Sessions really landed on distinct shards.
	populated := 0
	for _, db := range f.dbs {
		if db.Collection(aggregator.ResponsesCollection).CountEq("test_id", ringTestID) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("batch landed on %d shards; split did not spread", populated)
	}
}

func postJSONBytes(t *testing.T, url string, payload []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterFailoverToStandby: a dead primary with a live standby is a
// working shard.
func TestRouterFailoverToStandby(t *testing.T) {
	srv, _, _ := prepNode(t)
	standby := httptest.NewServer(srv)
	defer standby.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // connection refused from here on

	reg := obs.NewRegistry()
	rt, err := New(Config{
		Shards: []Spec{{Name: "s0", Primary: dead.URL, Standby: standby.URL}},
		Policy: failover.Policy{Retries: 3, Backoff: time.Millisecond}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, body := fetch(t, ts.URL+"/api/tests/"+ringTestID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("through standby = %d: %s", resp.StatusCode, body)
	}
	if reg.Counter("kscope_shard_failovers_total").Value() == 0 {
		t.Error("failover counter never moved")
	}
	// The preference is sticky: the next request goes straight to the
	// standby without burning retries on the dead primary.
	before := reg.Counter("kscope_shard_proxy_retries_total").Value()
	resp2, _ := fetch(t, ts.URL+"/api/tests/"+ringTestID)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request = %d", resp2.StatusCode)
	}
	if after := reg.Counter("kscope_shard_proxy_retries_total").Value(); after != before {
		t.Errorf("sticky preference still retried (%d -> %d)", before, after)
	}
}

// TestRouterExhaustionIsTyped: a segment whose every node is gone yields
// the same typed exhaustion error the worker tier reports — the 503 the
// router mints is built from it, and the exhausted counter moves.
func TestRouterExhaustionIsTyped(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()
	reg := obs.NewRegistry()
	rt, err := New(Config{
		Shards: []Spec{{Name: "s0", Primary: dead.URL, Standby: dead.URL + "0"}},
		Policy: failover.Policy{Retries: 2, Backoff: time.Millisecond}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	up, err := rt.doShard(context.Background(), rt.shards[0], http.MethodGet, "/api/tests/x", nil, nil)
	var ring *failover.RingExhaustedError
	if up != nil || !errors.Is(err, failover.ErrRingExhausted) || !errors.As(err, &ring) || len(ring.Nodes) != 2 {
		t.Fatalf("doShard = (%+v, %v), want a RingExhaustedError naming both nodes", up, err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/tests/x", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" ||
		!strings.Contains(rec.Body.String(), "failover ring exhausted") {
		t.Errorf("router answered %d %q", rec.Code, rec.Body.String())
	}
	if got := reg.Counter("kscope_shard_exhausted_total").Value(); got != 2 {
		t.Errorf("exhausted counter = %d, want 2", got)
	}
}

// TestRouterRetryAfterNormalization: chaos can strip Retry-After from a
// downstream 503; the deployment face must restore the shed contract.
func TestRouterRetryAfterNormalization(t *testing.T) {
	bare503 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable) // no Retry-After
	}))
	defer bare503.Close()
	rt, err := New(Config{
		Shards: []Spec{{Name: "s0", Primary: bare503.URL}},
		Policy: failover.Policy{Retries: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()
	resp, _ := fetch(t, ts.URL+"/api/tests/"+ringTestID)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("router relayed a 503 without Retry-After")
	}
}

// TestRouterFencedRotation: a node still answering but marked fenced is a
// deposed primary; the router must abandon its answer and take the
// standby's.
func TestRouterFencedRotation(t *testing.T) {
	fenced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(server.FencedHeader, "1")
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("stale"))
	}))
	defer fenced.Close()
	fresh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("fresh"))
	}))
	defer fresh.Close()

	reg := obs.NewRegistry()
	rt, err := New(Config{
		Shards: []Spec{{Name: "s0", Primary: fenced.URL, Standby: fresh.URL}},
		Policy: failover.Policy{Retries: 2, Backoff: time.Millisecond}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()
	resp, body := fetch(t, ts.URL+"/api/tests/x/task")
	if resp.StatusCode != http.StatusOK || string(body) != "fresh" {
		t.Fatalf("got %d %q, want the standby's answer", resp.StatusCode, body)
	}
}

// TestRouterStaleEpochRotation: once the router has seen epoch E from a
// shard, a node still answering from E-1 (a zombie that does not know it
// was deposed) is abandoned even though its responses look healthy.
func TestRouterStaleEpochRotation(t *testing.T) {
	zombie := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(server.EpochHeader, "1")
		w.Write([]byte("zombie"))
	}))
	defer zombie.Close()
	var standbyCalls int
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		standbyCalls++
		if standbyCalls == 2 {
			// One hiccup sends the preference back to the zombie; the
			// zombie's stale epoch must bounce it straight back here.
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set(server.EpochHeader, "2")
		w.Write([]byte("promoted"))
	}))
	defer standby.Close()

	rt, err := New(Config{
		Shards: []Spec{{Name: "s0", Primary: standby.URL, Standby: zombie.URL}},
		Policy: failover.Policy{Retries: 4, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// First request: the promoted node answers with epoch 2.
	resp, body := fetch(t, ts.URL+"/api/tests/x/task")
	if resp.StatusCode != http.StatusOK || string(body) != "promoted" {
		t.Fatalf("first = %d %q", resp.StatusCode, body)
	}
	// Second request: 503 rotates to the zombie, whose epoch-1 answer must
	// be rejected as stale and the request retried on the promoted node.
	resp, body = fetch(t, ts.URL+"/api/tests/x/task")
	if resp.StatusCode != http.StatusOK || string(body) != "promoted" {
		t.Fatalf("second = %d %q — the zombie's stale answer leaked through", resp.StatusCode, body)
	}
}

// TestRouterHidesShardEpochs: replication epochs are per shard, and a worker
// whose only base is the router has one ring for the whole deployment. If
// the router leaked them, a client that read from a promoted shard (epoch
// 2) would refuse every ack from a shard still at epoch 1 as a deposed
// primary's. The router fences per segment and answers epoch-free.
func TestRouterHidesShardEpochs(t *testing.T) {
	names := []string{"shard-0", "shard-1"}
	ring, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The test's home shard has been promoted; the other has not.
	home := ring.Owner(TestKey(ringTestID))
	var prep *aggregator.Prepared
	specs := make([]Spec, len(names))
	for i, name := range names {
		srv, _, p := prepNode(t)
		prep = p
		epoch := "1"
		if i == home {
			epoch = "2"
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(server.EpochHeader, epoch)
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		specs[i] = Spec{Name: name, Primary: ts.URL}
	}
	rt, err := New(Config{Shards: specs, Policy: failover.Policy{Retries: 1, Backoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt)
	t.Cleanup(routerTS.Close)

	// Workers owned by the shard that is NOT the test's home.
	var away []string
	for i := 0; len(away) < 3; i++ {
		if w := fmt.Sprintf("w%03d", i); rt.Ring().Owner(SessionKey(ringTestID, w)) != home {
			away = append(away, w)
		}
	}
	c, err := extension.NewClient(routerTS.URL, nil, extension.WithPolicy(failover.Policy{Retries: 1, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TestInfo(ringTestID); err != nil { // answered by the epoch-2 shard
		t.Fatal(err)
	}
	if out, err := c.UploadSession(ringTestID, sampleUpload(prep, away[0], questionnaire.ChoiceLeft)); err != nil || out != extension.UploadStored {
		t.Errorf("upload to the epoch-1 shard after reading from the epoch-2 shard = %v, %v; want stored", out, err)
	}
	batch := []server.SessionUpload{
		sampleUpload(prep, away[1], questionnaire.ChoiceLeft),
		sampleUpload(prep, away[2], questionnaire.ChoiceLeft),
	}
	if rep, err := c.UploadBatch(ringTestID, batch, false); err != nil || rep.Accepted != 2 {
		t.Errorf("batch to the epoch-1 shard = %+v, %v; want 2 accepted", rep, err)
	}
	if err := c.DeleteTest(ringTestID); err != nil {
		t.Errorf("delete across shards at different epochs: %v", err)
	}
	if c.Epoch() != 0 {
		t.Errorf("client observed epoch %d through the router; shard epochs must not leak", c.Epoch())
	}
}

// TestRouterPartialResults: a fully-lost ring segment degrades /results to
// a partial snapshot instead of failing it; a fully-lost fleet is a 503.
func TestRouterPartialResults(t *testing.T) {
	f := newFixture(t, 3)
	uploadFixtureCrowd(t, f, 6, nil)

	// Kill a shard that owns at least one session (no standby): its
	// segment — and its share of the crowd — is gone.
	victim, victimShare := 0, 0
	for i := range f.dbs {
		share := 0
		for j := 0; j < 6; j++ {
			if f.router.Ring().Owner(SessionKey(ringTestID, fmt.Sprintf("w%03d", j))) == i {
				share++
			}
		}
		if share > 0 && share < 6 {
			victim, victimShare = i, share
			break
		}
	}
	if victimShare == 0 {
		t.Fatal("no shard owns a strict subset of the crowd; fixture cannot exercise partial results")
	}
	f.nodeTS[victim].Close()
	resp, body := fetch(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial results = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(PartialHeader) != "1" {
		t.Error("lost segment did not mark the response partial")
	}
	var res server.Results
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Workers != 6-victimShare {
		t.Errorf("partial snapshot holds %d workers, want %d (lost shard owned %d)", res.Workers, 6-victimShare, victimShare)
	}
	if f.reg.Counter("kscope_shard_partial_results_total").Value() == 0 {
		t.Error("partial counter never moved")
	}

	// The quality path degrades the same way.
	resp, body = fetch(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/results?quality=1")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "1" {
		t.Errorf("partial quality results = %d partial=%q: %s", resp.StatusCode, resp.Header.Get(PartialHeader), body)
	}

	// Readiness reports the lost segment.
	resp, body = fetch(t, f.routerTS.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("readyz with a lost segment = %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"degraded"`)) {
		t.Errorf("readyz body = %s", body)
	}

	// Whole fleet gone: now it IS an outage.
	for i, ts := range f.nodeTS {
		if i != victim {
			ts.Close()
		}
	}
	resp, _ = fetch(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/results")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("fleet-wide outage = %d, want 503 + Retry-After", resp.StatusCode)
	}
}

func TestRouterReadyzHealthy(t *testing.T) {
	f := newFixture(t, 2)
	resp, body := fetch(t, f.routerTS.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Status string           `json:"status"`
		Shards []shardReadiness `json:"shards"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ready" || len(rep.Shards) != 2 {
		t.Errorf("readyz report = %+v", rep)
	}
}

// TestRouterGhostTestPaths: every scatter/gather surface passes a
// definitive 404 through when no shard knows the test.
func TestRouterGhostTestPaths(t *testing.T) {
	f := newFixture(t, 2)
	for _, path := range []string{
		"/api/tests/ghost/results",
		"/api/tests/ghost/results?quality=1",
		"/api/tests/ghost/sessions",
	} {
		resp, body := fetch(t, f.routerTS.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d: %s", path, resp.StatusCode, body)
		}
	}
	resp, _ := fetch(t, f.routerTS.URL+"/api/tests/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("empty test id = %d, want 404", resp.StatusCode)
	}
}

// TestRouterBatchEdgeCases: the batch splitter's input validation and the
// empty-batch forward to the home shard.
func TestRouterBatchEdgeCases(t *testing.T) {
	f := newFixture(t, 2)
	url := f.routerTS.URL + "/api/tests/" + ringTestID + "/sessions:batch"

	// Malformed JSON is rejected at the router, before any shard sees it.
	resp := postJSONBytes(t, url, []byte("{not json"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch = %d, want 400", resp.StatusCode)
	}

	// A corrupt gzip stream is rejected the same way.
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte("junk")))
	req.Header.Set("Content-Encoding", "gzip")
	gresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt gzip batch = %d, want 400", gresp.StatusCode)
	}

	// An empty batch has nothing to split: the home shard answers with the
	// single-node semantics, whatever they are — the router must relay, not
	// invent.
	eresp := postJSONBytes(t, url, []byte("[]"))
	ebody, _ := io.ReadAll(eresp.Body)
	eresp.Body.Close()
	single, _, _ := prepNode(t)
	sreq := httptest.NewRequest(http.MethodPost, "/api/tests/"+ringTestID+"/sessions:batch", bytes.NewReader([]byte("[]")))
	sreq.Header.Set("Content-Type", "application/json")
	srec := httptest.NewRecorder()
	single.ServeHTTP(srec, sreq)
	if eresp.StatusCode != srec.Code {
		t.Errorf("empty batch through router = %d, single node = %d: %s", eresp.StatusCode, srec.Code, ebody)
	}
}

// TestRouterHonorsRetryAfter: a shed with Retry-After, in either RFC 9110
// form, makes the router wait (capped) and retry — and succeed when the
// shard recovers.
func TestRouterHonorsRetryAfter(t *testing.T) {
	const maxWait = 40 * time.Millisecond
	for _, tc := range []struct {
		name       string
		retryAfter func() string
	}{
		{"delta-seconds", func() string { return "1" }},
		{"HTTP-date", func() string { return time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls int
			flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				calls++
				if calls == 1 {
					w.Header().Set("Retry-After", tc.retryAfter())
					w.WriteHeader(http.StatusTooManyRequests)
					return
				}
				w.Write([]byte("recovered"))
			}))
			defer flappy.Close()
			rt, err := New(Config{
				Shards: []Spec{{Name: "s0", Primary: flappy.URL}},
				Policy: failover.Policy{Retries: 2, Backoff: time.Millisecond, MaxRetryAfter: maxWait},
			})
			if err != nil {
				t.Fatal(err)
			}
			var waits []time.Duration
			rt.shards[0].loop.OnRetry = func(wait time.Duration) { waits = append(waits, wait) }
			ts := httptest.NewServer(rt)
			defer ts.Close()
			resp, body := fetch(t, ts.URL+"/api/tests/x/task")
			if resp.StatusCode != http.StatusOK || string(body) != "recovered" {
				t.Fatalf("got %d %q", resp.StatusCode, body)
			}
			// The shard's delay (1s or more) must have been honored — not
			// the router's own 1ms backoff — and capped to MaxRetryAfter.
			if len(waits) != 1 || waits[0] != maxWait {
				t.Errorf("retry waits %v; want one, the shard's Retry-After capped to %v", waits, maxWait)
			}
		})
	}
}

// TestRouterSessionListPartial: the merged session list flags a lost
// segment like the results merge does.
func TestRouterSessionListPartial(t *testing.T) {
	f := newFixture(t, 3)
	uploadFixtureCrowd(t, f, 6, nil)
	victim := -1
	for i := range f.dbs {
		for j := 0; j < 6; j++ {
			if f.router.Ring().Owner(SessionKey(ringTestID, fmt.Sprintf("w%03d", j))) == i {
				victim = i
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	// The victim owning sessions must not be the test's home shard: the
	// session list needs test info to distinguish "no test" from "no
	// sessions", and info is read round-robin from the home shard on.
	f.nodeTS[victim].Close()
	resp, body := fetch(t, f.routerTS.URL+"/api/tests/"+ringTestID+"/sessions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial session list = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(PartialHeader) != "1" {
		t.Error("lost segment did not mark the session list partial")
	}
	var ups []server.SessionUpload
	if err := json.Unmarshal(body, &ups); err != nil {
		t.Fatal(err)
	}
	if len(ups) >= 6 {
		t.Errorf("partial list holds %d sessions, want fewer than 6", len(ups))
	}
	// The test listing flags it too.
	resp, _ = fetch(t, f.routerTS.URL+"/api/tests")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "1" {
		t.Errorf("test listing with lost segment = %d partial=%q", resp.StatusCode, resp.Header.Get(PartialHeader))
	}
}
