package shard

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

var foldSeed = flag.Int64("fold.seed", 0, "replay one crowd of TestFoldMergeProperty (0: the built-in seeds)")

const foldTestID = "fold-test"

// foldShape is one prepared test of the fold-merge tests: versions compared
// pairwise give versions*(versions-1)/2 real pages, and every page is asked
// every question. origin holds the prepared documents every shard copies.
type foldShape struct {
	versions, questions int
	origin              *store.DB
	prep                *aggregator.Prepared
	info                *server.TestInfo
}

func prepShape(t testing.TB, versions, questions int) *foldShape {
	t.Helper()
	sh := &foldShape{versions: versions, questions: questions, origin: store.OpenMemory()}
	agg, err := aggregator.New(sh.origin, store.NewBlobStore())
	if err != nil {
		t.Fatal(err)
	}
	test := &params.Test{
		TestID: foldTestID, WebpageNum: versions, TestDescription: "fold merge test", ParticipantNum: 10,
	}
	sites := map[string]*webgen.Site{}
	for v := 0; v < versions; v++ {
		path := fmt.Sprintf("v%d", v)
		test.Webpages = append(test.Webpages, params.Webpage{
			WebPath: path, WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html",
		})
		sites[path] = webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 10 + 4*v})
	}
	for q := 0; q < questions; q++ {
		test.Questions = append(test.Questions, fmt.Sprintf("Which version wins on criterion %d?", q))
	}
	if sh.prep, err = agg.Prepare(test, sites, nil); err != nil {
		t.Fatal(err)
	}
	srv, _ := sh.node(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/tests/"+foldTestID, nil))
	sh.info = new(server.TestInfo)
	if err := json.Unmarshal(rec.Body.Bytes(), sh.info); err != nil {
		t.Fatalf("test info: %v (%s)", err, rec.Body.String())
	}
	return sh
}

// node starts one more storage node provisioned with the shape's test.
func (sh *foldShape) node(t testing.TB) (*server.Server, *store.DB) {
	t.Helper()
	db := store.OpenMemory()
	for _, name := range []string{aggregator.TestsCollection, aggregator.PagesCollection} {
		for _, doc := range sh.origin.Collection(name).Find(nil) {
			if _, err := db.Collection(name).InsertUnique(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv, err := server.New(db, store.NewBlobStore())
	if err != nil {
		t.Fatal(err)
	}
	return srv, db
}

// storeSession puts a session where an upload handler would, without the
// handler's validation: stored data is older than any validator, and an
// illegal choice in it must conclude the same way on a fleet as on a node.
func storeSession(t testing.TB, db *store.DB, up server.SessionUpload) {
	t.Helper()
	raw, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Collection(aggregator.ResponsesCollection).InsertUnique(store.Document{
		store.IDField: foldTestID + "/" + up.WorkerID,
		"test_id":     foldTestID,
		"worker_id":   up.WorkerID,
		"session":     string(raw),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// crowd draws a random crowd for the shape. Every (real page, question) has
// a mood — a consensus most honest workers give, an even split, an exact
// alternation (no strict majority), or an illegal value the majority picks —
// and workers are honest, contrarian (so the crowd-wisdom check has someone
// to fail) or random, then mutated: an answer dropped, added, duplicated
// over another, moved to a control page (a question with too few peers) or
// made illegal; telemetry absent, rushed or stalled; a control failed.
func (sh *foldShape) crowd(rng *rand.Rand) []server.SessionUpload {
	legal := []questionnaire.Choice{questionnaire.ChoiceLeft, questionnaire.ChoiceRight, questionnaire.ChoiceSame}
	type mood struct {
		consensus questionnaire.Choice
		agree     float64
		alternate bool
	}
	moods := map[quality.QuestionRef]mood{}
	var refs []quality.QuestionRef
	for _, p := range sh.prep.RealPages() {
		for q := 0; q < sh.questions; q++ {
			ref := quality.QuestionRef{PageID: p.ID, QuestionID: fmt.Sprintf("q%d", q)}
			refs = append(refs, ref)
			switch rng.Intn(6) {
			case 0:
				moods[ref] = mood{consensus: questionnaire.ChoiceLeft, agree: 0.5}
			case 1:
				moods[ref] = mood{alternate: true}
			case 2:
				moods[ref] = mood{consensus: "maybe", agree: 0.8}
			default:
				moods[ref] = mood{consensus: legal[rng.Intn(3)], agree: 0.9}
			}
		}
	}
	other := func(not questionnaire.Choice) questionnaire.Choice {
		for {
			if c := legal[rng.Intn(3)]; c != not {
				return c
			}
		}
	}
	controls := sh.prep.ControlPages()

	sizes := []int{0, 1, 3, 4, 5, 7, 12, 30, 60}
	n := sizes[rng.Intn(len(sizes))]
	seen := map[string]bool{}
	var ups []server.SessionUpload
	for idx := 0; len(ups) < n; idx++ {
		worker := fmt.Sprintf("w%d", rng.Intn(5000))
		if seen[worker] {
			continue
		}
		seen[worker] = true
		up := server.SessionUpload{TestID: foldTestID, WorkerID: worker}
		kind := rng.Intn(10) // 0-6 honest, 7-8 contrarian, 9 random
		for _, ref := range refs {
			m := moods[ref]
			var choice questionnaire.Choice
			switch {
			case kind == 9:
				choice = legal[rng.Intn(3)]
			case m.alternate:
				choice = legal[idx%2]
			case kind >= 7:
				choice = other(m.consensus)
			case rng.Float64() < m.agree:
				choice = m.consensus
			default:
				choice = other(m.consensus)
			}
			up.Responses = append(up.Responses, questionnaire.Response{
				TestID: foldTestID, WorkerID: worker, PageID: ref.PageID, QuestionID: ref.QuestionID,
				Choice: choice, DurationMillis: 5000 + rng.Intn(20000),
			})
		}
		pick := func() *questionnaire.Response { return &up.Responses[rng.Intn(len(up.Responses))] }
		if rng.Intn(12) == 0 {
			up.Responses = up.Responses[:len(up.Responses)-1]
		}
		if rng.Intn(12) == 0 && len(up.Responses) > 0 {
			up.Responses = append(up.Responses, *pick())
		}
		if rng.Intn(10) == 0 && len(up.Responses) > 1 {
			*pick() = *pick()
		}
		if rng.Intn(10) == 0 && len(up.Responses) > 0 {
			pick().PageID = controls[rng.Intn(len(controls))].ID
		}
		if rng.Intn(12) == 0 && len(up.Responses) > 0 {
			pick().Choice = "maybe"
		}
		if telemetry := rng.Intn(10); telemetry > 0 {
			for range sh.prep.Pages {
				ms := 4000 + rng.Intn(50000)
				if telemetry == 1 {
					ms = 300 + rng.Intn(2000)
				}
				up.Behaviors = append(up.Behaviors, crowd.Behavior{TimeOnTaskMillis: ms, CreatedTabs: 1, ActiveTabSwitches: 2})
			}
			if telemetry == 2 {
				up.Behaviors[rng.Intn(len(up.Behaviors))].TimeOnTaskMillis = 200_000
			}
		}
		for _, c := range controls {
			got := c.Expected
			if rng.Intn(12) == 0 {
				got = other(c.Expected)
			}
			up.Controls = append(up.Controls, quality.ControlOutcome{PageID: c.ID, Expected: c.Expected, Got: got})
		}
		ups = append(ups, up)
	}
	return ups
}

// oracle is the single-node conclusion over a session set: what a fleet
// holding exactly those sessions must serve.
func (sh *foldShape) oracle(t testing.TB, ups []server.SessionUpload) (*server.Results, []byte) {
	t.Helper()
	// The oracle judges what storage would hand it back.
	var stored []server.SessionUpload
	raw, _ := json.Marshal(ups)
	if err := json.Unmarshal(raw, &stored); err != nil {
		t.Fatal(err)
	}
	sort.Slice(stored, func(a, b int) bool { return stored[a].WorkerID < stored[b].WorkerID })
	want, err := server.ConcludeUploads(sh.info, stored, true)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return want, body
}

func serve(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// foldDocs partitions a crowd over k nodes by the real ring and returns
// each node's fold document.
func (sh *foldShape) foldDocs(t testing.TB, ups []server.SessionUpload, k int) (docs [][]byte, nodes []*server.Server, held []int) {
	t.Helper()
	ring, err := NewRing(shardNames(k), 0)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*store.DB, k)
	nodes, held = make([]*server.Server, k), make([]int, k)
	for i := range nodes {
		nodes[i], dbs[i] = sh.node(t)
	}
	for _, up := range ups {
		owner := ring.Owner(SessionKey(foldTestID, up.WorkerID))
		storeSession(t, dbs[owner], up)
		held[owner]++
	}
	for i, n := range nodes {
		rec := serve(n, "/api/tests/"+foldTestID+"/fold")
		if rec.Code != http.StatusOK {
			t.Fatalf("shard %d of %d: GET fold = %d: %s", i, k, rec.Code, rec.Body.String())
		}
		docs = append(docs, rec.Body.Bytes())
	}
	return docs, nodes, held
}

// mergeDocs decodes the documents and merges them in the given order.
func mergeDocs(docs [][]byte, order []int) (*server.FoldState, error) {
	var merged *server.FoldState
	for _, i := range order {
		fs, err := server.DecodeFoldState(docs[i])
		if err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		if merged == nil {
			merged = fs
		} else if err := merged.Merge(fs); err != nil {
			return nil, fmt.Errorf("merging document %d: %w", i, err)
		}
	}
	return merged, nil
}

// TestFoldMergeProperty is the merge algebra's contract: for any crowd and
// any partition of it by the ring, the shards' fold documents merged (in
// any order) and concluded are the single-node conclusion over the union —
// reflect.DeepEqual and byte for byte.
func TestFoldMergeProperty(t *testing.T) {
	shapes := []*foldShape{
		prepShape(t, 2, 1), prepShape(t, 2, 2), // every worker settled where it is stored
		prepShape(t, 2, 3), prepShape(t, 2, 6), prepShape(t, 3, 1), prepShape(t, 3, 2),
	}
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *foldSeed != 0 {
		seeds = []int64{*foldSeed}
	}
	var crowdDrops, awaiting, settled, emptyShards int
	for _, seed := range seeds {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(seed*1000 + int64(sh.versions*10+sh.questions)))
			ups := sh.crowd(rng)
			want, wantJSON := sh.oracle(t, ups)
			for _, k := range []int{1, 2, 3, 5} {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d, %d versions x %d questions, %d sessions over %d shards: %s\nreplay: go test ./internal/shard -run TestFoldMergeProperty -fold.seed=%d",
						seed, sh.versions, sh.questions, len(ups), k, fmt.Sprintf(format, args...), seed)
				}
				docs, nodes, held := sh.foldDocs(t, ups, k)
				order := rng.Perm(k)
				merged, err := mergeDocs(docs, order)
				if err != nil {
					fail("%v", err)
				}
				passing := len(merged.Workers)
				awaiting += len(merged.Awaiting)
				settled += passing - len(merged.Awaiting)
				got := merged.Conclude()
				gotJSON, _ := json.Marshal(got)
				if !reflect.DeepEqual(got, want) || !bytes.Equal(gotJSON, wantJSON) {
					fail("merged in order %v and concluded\n%s\noracle over the union\n%s", order, gotJSON, wantJSON)
				}
				crowdDrops += passing - got.Workers

				// Merge is commutative: the reverse order is the same state.
				sort.Sort(sort.Reverse(sort.IntSlice(order)))
				again, err := mergeDocs(docs, order)
				if err != nil {
					fail("%v", err)
				}
				a, _ := json.Marshal(again)
				b, _ := mergeDocs(docs, rng.Perm(k))
				bJSON, _ := json.Marshal(b)
				if !bytes.Equal(a, bJSON) {
					fail("merge order changes the state:\n%s\n%s", a, bJSON)
				}
				for _, n := range held {
					if n == 0 {
						emptyShards++
					}
				}
				if k == 1 {
					// A node is the merge of one state: its own served results
					// come out of the same kernel.
					rec := serve(nodes[0], "/api/tests/"+foldTestID+"/results?quality=1")
					if served := bytes.TrimSpace(rec.Body.Bytes()); rec.Code != http.StatusOK || !bytes.Equal(served, wantJSON) {
						fail("the node serves %d\n%s\noracle\n%s", rec.Code, served, wantJSON)
					}
				}
			}
		}
	}
	t.Logf("%d workers settled locally, %d sent to the crowd check, which dropped %d; %d empty shards", settled, awaiting, crowdDrops, emptyShards)
	if *foldSeed == 0 && (crowdDrops == 0 || awaiting == 0 || settled == 0 || emptyShards == 0) {
		t.Error("the generator no longer exercises every branch of the algebra (see the log line above)")
	}
}

// foldFleet is k storage nodes of one shape behind a router, over loopback.
// A node's answer to the fold read can be replaced (stub) to play a shard
// that misbehaves.
type foldFleet struct {
	sh        *foldShape
	ring      *Ring
	nodes     []*server.Server
	nodeTS    []*httptest.Server
	mu        sync.Mutex
	stub      []http.HandlerFunc // per node; nil serves the node's own answer
	foldReads []int              // fold reads each node received
	held      [][]server.SessionUpload
	routerURL string
	reg       *obs.Registry
}

func newFoldFleet(t *testing.T, sh *foldShape, k int, ups []server.SessionUpload) *foldFleet {
	t.Helper()
	f := &foldFleet{
		sh: sh, reg: obs.NewRegistry(),
		stub: make([]http.HandlerFunc, k), foldReads: make([]int, k), held: make([][]server.SessionUpload, k),
	}
	specs := make([]Spec, k)
	dbs := make([]*store.DB, k)
	for i, name := range shardNames(k) {
		i := i
		srv, db := sh.node(t)
		dbs[i] = db
		f.nodes = append(f.nodes, srv)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/fold") {
				f.mu.Lock()
				f.foldReads[i]++
				stub := f.stub[i]
				f.mu.Unlock()
				if stub != nil {
					stub(w, r)
					return
				}
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		f.nodeTS = append(f.nodeTS, ts)
		specs[i] = Spec{Name: name, Primary: ts.URL}
	}
	rt, err := New(Config{
		Shards: specs, Registry: f.reg, Timeout: 5 * time.Second,
		Policy: failover.Policy{Retries: 1, Backoff: time.Millisecond, MaxRetryAfter: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ring = rt.Ring()
	for _, up := range ups {
		owner := f.ring.Owner(SessionKey(foldTestID, up.WorkerID))
		storeSession(t, dbs[owner], up)
		f.held[owner] = append(f.held[owner], up)
	}
	routerTS := httptest.NewServer(rt)
	t.Cleanup(routerTS.Close)
	f.routerURL = routerTS.URL
	return f
}

// union lists the sessions held by every shard but the excluded ones.
func (f *foldFleet) union(except ...int) []server.SessionUpload {
	var ups []server.SessionUpload
	for i, part := range f.held {
		skip := false
		for _, x := range except {
			skip = skip || x == i
		}
		if !skip {
			ups = append(ups, part...)
		}
	}
	return ups
}

// stubFold replaces the given nodes' answer to the fold read.
func (f *foldFleet) stubFold(h http.HandlerFunc, nodes ...int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, i := range nodes {
		f.stub[i] = h
	}
}

func (f *foldFleet) reads() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.foldReads...)
}

func (f *foldFleet) partials() int64 {
	return f.reg.Counter("kscope_shard_partial_results_total").Value()
}

// expectQC polls the router's quality-controlled results and holds them to
// the oracle over the shards that are supposed to have contributed.
func (f *foldFleet) expectQC(t *testing.T, what string, partial bool, except ...int) *http.Response {
	t.Helper()
	before := f.partials()
	resp, body := fetch(t, f.routerURL+"/api/tests/"+foldTestID+"/results?quality=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: results = %d: %s", what, resp.StatusCode, body)
	}
	if _, want := f.sh.oracle(t, f.union(except...)); !bytes.Equal(bytes.TrimSpace(body), want) {
		t.Errorf("%s: router serves\n%s\noracle over the contributing shards\n%s", what, body, want)
	}
	if got := resp.Header.Get(PartialHeader) == "1"; got != partial {
		t.Errorf("%s: %s = %q, want partial %v", what, PartialHeader, resp.Header.Get(PartialHeader), partial)
	}
	if moved := f.partials() - before; (moved == 1) != partial {
		t.Errorf("%s: kscope_shard_partial_results_total moved by %d, want partial %v", what, moved, partial)
	}
	return resp
}

// pendingCrowd draws crowds until one spreads over every shard of the
// fleet-to-be and has workers only the merged votes can judge.
func pendingCrowd(t *testing.T, sh *foldShape, k int) []server.SessionUpload {
	t.Helper()
	ring, err := NewRing(shardNames(k), 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 200; seed++ {
		ups := sh.crowd(rand.New(rand.NewSource(seed)))
		owners := map[int]bool{}
		for _, up := range ups {
			owners[ring.Owner(SessionKey(foldTestID, up.WorkerID))] = true
		}
		want, _ := sh.oracle(t, ups)
		if len(owners) == k && want.DroppedWorkers > 0 && want.Workers > 0 {
			return ups
		}
	}
	t.Fatal("no seed yields a crowd that covers every shard")
	return nil
}

func TestRouterFoldMerge(t *testing.T) {
	sh := prepShape(t, 3, 2)
	ups := pendingCrowd(t, sh, 3)

	t.Run("all shards up", func(t *testing.T) {
		f := newFoldFleet(t, sh, 3, ups)
		f.expectQC(t, "healthy fleet", false)
		if got := f.reads(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
			t.Errorf("fold reads per shard = %v, want one each", got)
		}
	})

	t.Run("unreachable shard", func(t *testing.T) {
		f := newFoldFleet(t, sh, 3, ups)
		f.nodeTS[1].Close()
		f.expectQC(t, "shard 1 gone", true, 1)
	})

	t.Run("404 contributes zero", func(t *testing.T) {
		f := newFoldFleet(t, sh, 3, ups)
		req, _ := http.NewRequest(http.MethodDelete, f.nodeTS[2].URL+"/api/tests/"+foldTestID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("deleting on shard 2: %v %v", resp, err)
		}
		resp.Body.Close()
		f.expectQC(t, "test deleted on shard 2", false, 2)

		// Deleted everywhere: the shards' 404 is the fleet's.
		req, _ = http.NewRequest(http.MethodDelete, f.routerURL+"/api/tests/"+foldTestID, nil)
		if resp, err = http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("deleting through the router: %v %v", resp, err)
		}
		resp.Body.Close()
		resp, body := fetch(t, f.routerURL+"/api/tests/"+foldTestID+"/results?quality=1")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("results of a deleted test = %d: %s", resp.StatusCode, body)
		}
		// One shard gone besides: the rest still say 404, and that stands.
		f.nodeTS[0].Close()
		if resp, body = fetch(t, f.routerURL+"/api/tests/"+foldTestID+"/results?quality=1"); resp.StatusCode != http.StatusNotFound {
			t.Errorf("results of a deleted test with a shard down = %d: %s", resp.StatusCode, body)
		}
	})

	t.Run("document that does not decode or merge", func(t *testing.T) {
		f := newFoldFleet(t, sh, 3, ups)
		real := serve(f.nodes[0], "/api/tests/"+foldTestID+"/fold").Body.String()
		otherTest := strings.Replace(real, `"test_id":"`+foldTestID+`"`, `"test_id":"another"`, 1)
		for name, doc := range map[string]string{
			"not json":         `{"test_id":`,
			"negative count":   `{"test_id":"fold-test","sessions":-1,"pages":[],"votes":[],"workers":[]}`,
			"unsorted workers": `{"test_id":"fold-test","sessions":2,"pages":[],"votes":[],"workers":["b","a"]}`,
			"another test":     otherTest,
			"shard 0's doc":    real, // its workers are in the merge already
		} {
			f.stubFold(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, doc)
			}, 1)
			f.expectQC(t, "shard 1 answers "+name, true, 1)
		}
	})

	t.Run("degraded and refusing shards", func(t *testing.T) {
		f := newFoldFleet(t, sh, 3, ups)
		f.stubFold(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(server.DegradedHeader, "1")
			f.nodes[0].ServeHTTP(w, r)
		}, 0)
		if resp := f.expectQC(t, "shard 0 degraded", false); resp.Header.Get(server.DegradedHeader) != "1" {
			t.Error("a degraded shard's marker did not reach the client")
		}
		// Breaker open over lazy state: the shard has nothing to serve.
		refuse := func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"fold state unavailable"}`, http.StatusServiceUnavailable)
		}
		f.stubFold(refuse, 0)
		if resp := f.expectQC(t, "shard 0 refuses", true, 0); resp.Header.Get(server.DegradedHeader) != "" {
			t.Error("degraded marker without a degraded contribution")
		}
		// Every shard refusing: the refusal is relayed, Retry-After intact.
		f.stubFold(refuse, 1, 2)
		resp, body := fetch(t, f.routerURL+"/api/tests/"+foldTestID+"/results?quality=1")
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "7" {
			t.Errorf("whole fleet refusing = %d retry-after=%q: %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	})

	t.Run("the route is not on the deployment face", func(t *testing.T) {
		f := newFoldFleet(t, sh, 3, ups)
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, _ := http.NewRequest(method, f.routerURL+"/api/tests/"+foldTestID+"/fold", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s fold through the router = %d, want 404", method, resp.StatusCode)
			}
		}
		if got := f.reads(); !reflect.DeepEqual(got, []int{0, 0, 0}) {
			t.Errorf("the router forwarded the fold read: %v", got)
		}
	})
}

// Every scatter/gather surface marks a partial answer the same way: the
// header and the counter move together.
func TestPartialMarksHeaderAndCounter(t *testing.T) {
	sh := prepShape(t, 2, 1)
	f := newFoldFleet(t, sh, 3, pendingCrowd(t, sh, 3))
	victim := (f.ring.Owner(TestKey(foldTestID)) + 1) % 3 // not the home shard: the session list reads test info there first
	f.nodeTS[victim].Close()
	for _, path := range []string{
		"/api/tests/" + foldTestID + "/results",
		"/api/tests/" + foldTestID + "/results?quality=1",
		"/api/tests/" + foldTestID + "/sessions",
		"/api/tests",
	} {
		before := f.partials()
		resp, body := fetch(t, f.routerURL+path)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "1" {
			t.Errorf("GET %s with a shard down = %d, %s=%q: %s", path, resp.StatusCode, PartialHeader, resp.Header.Get(PartialHeader), body)
		}
		if moved := f.partials() - before; moved != 1 {
			t.Errorf("GET %s with a shard down moved kscope_shard_partial_results_total by %d, want 1", path, moved)
		}
	}
}

// counting is resultsFleet's link to its shards; it counts the response
// bytes the shards send the router.
type counting struct {
	*netsim.Link
	upstream *atomic.Int64
}

func (c counting) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.Link.RoundTrip(req)
	if err == nil {
		c.upstream.Add(resp.ContentLength)
	}
	return resp, err
}

// resultsFleet is the results polls' fixture: a router over 3 in-process
// shards holding 200 sessions of the end-to-end script's shape (one real
// page, one question, one worker in eight unengaged), fold state live as
// after the raw poll that precedes a QC poll there. It has no sockets, so
// allocs/op and upstream-B/op repeat exactly; scripts/bench_delta.sh holds
// both to BENCH_server.json.
func resultsFleet(b *testing.B) (*Router, counting) {
	sh := prepShape(b, 2, 1)
	link := counting{&netsim.Link{}, new(atomic.Int64)}
	specs := make([]Spec, 3)
	dbs := make([]*store.DB, len(specs))
	for i := range specs {
		host := fmt.Sprintf("shard-%d", i)
		var node http.Handler
		node, dbs[i] = sh.node(b)
		specs[i] = Spec{Name: host, Primary: link.Serve(host, node)}
	}
	rt, err := New(Config{Shards: specs, Transport: func(string, string) http.RoundTripper { return link }})
	if err != nil {
		b.Fatal(err)
	}
	page := sh.prep.RealPages()[0].ID
	control := sh.prep.ControlPages()[0]
	for i := 0; i < 200; i++ {
		worker := fmt.Sprintf("w%03d-%06x", i, i*7919)
		ms := 20000
		if i%8 == 0 {
			ms = 900
		}
		up := server.SessionUpload{
			TestID: foldTestID, WorkerID: worker,
			Responses: []questionnaire.Response{{
				TestID: foldTestID, WorkerID: worker, PageID: page, QuestionID: "q0",
				Choice: []questionnaire.Choice{questionnaire.ChoiceLeft, questionnaire.ChoiceRight}[i%2], DurationMillis: ms,
			}},
			Behaviors: []crowd.Behavior{{TimeOnTaskMillis: ms, CreatedTabs: 1, ActiveTabSwitches: 2}, {TimeOnTaskMillis: ms, CreatedTabs: 1, ActiveTabSwitches: 2}},
			Controls:  []quality.ControlOutcome{{PageID: control.ID, Expected: control.Expected, Got: control.Expected}},
		}
		storeSession(b, dbs[rt.Ring().Owner(SessionKey(foldTestID, worker))], up)
	}
	if rec := serve(rt, "/api/tests/"+foldTestID+"/results"); rec.Code != http.StatusOK {
		b.Fatalf("raw results = %d: %s", rec.Code, rec.Body.String())
	}
	var res server.Results
	if rec := serve(rt, "/api/tests/"+foldTestID+"/results?quality=1"); json.Unmarshal(rec.Body.Bytes(), &res) != nil || res.Workers != 175 || res.DroppedWorkers != 25 {
		b.Fatalf("quality results = %d: %s", rec.Code, rec.Body.String())
	}
	return rt, link
}

// pollResults times one results poll through the router on resultsFleet.
func pollResults(b *testing.B, path string) {
	rt, link := resultsFleet(b)
	link.upstream.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(rt, path); rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d", path, rec.Code)
		}
	}
	b.ReportMetric(float64(link.upstream.Load())/float64(b.N), "upstream-B/op")
}

// BenchmarkRouterResultsQC is one quality-controlled results poll: three fold
// documents decoded, merged and concluded.
func BenchmarkRouterResultsQC(b *testing.B) {
	pollResults(b, "/api/tests/"+foldTestID+"/results?quality=1")
}

// BenchmarkRouterResultsRaw is one raw results poll on the same fleet: three
// server.Results bodies decoded and their tallies added.
func BenchmarkRouterResultsRaw(b *testing.B) {
	pollResults(b, "/api/tests/"+foldTestID+"/results")
}

// BenchmarkDecodeFoldState decodes one shard's fold document of
// resultsFleet as a node writes it.
func BenchmarkDecodeFoldState(b *testing.B) {
	_, link := resultsFleet(b)
	resp, err := (&http.Client{Transport: link}).Get("http://shard-0/api/tests/" + foldTestID + "/fold")
	if err != nil {
		b.Fatal(err)
	}
	doc, _ := io.ReadAll(resp.Body) // a link's body is already in memory
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := server.DecodeFoldState(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
