package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// guardClock is the guard's clock in these tests: it stands still until
// advance moves it.
type guardClock struct{ ns atomic.Int64 }

func (c *guardClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *guardClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// prepGuardedTest prepares the standard 2-version test in a dir-backed,
// fault-injectable store and wires the server with a guard built from cfg
// (srv.guard, its metrics in srv.reg) on the returned clock.
func prepGuardedTest(t testing.TB, cfg guard.Config) (*Server, *aggregator.Prepared, *store.FaultFS, *guardClock) {
	t.Helper()
	ffs := store.NewFaultFS()
	db, err := store.Open(filepath.Join(t.TempDir(), "db"), store.WithFileSystem(ffs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test := &params.Test{
		TestID:          "srv-test",
		WebpageNum:      2,
		TestDescription: "guarded server test",
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
	clock := &guardClock{}
	cfg.Now = clock.now
	g := guard.New(cfg)
	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	srv, err := New(db, blobs, WithGuard(g), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	return srv, prep, ffs, clock
}

func postUpload(t *testing.T, srv *Server, prep *aggregator.Prepared, workerID string) *httptest.ResponseRecorder {
	t.Helper()
	payload, err := json.Marshal(sampleUpload(prep, workerID, questionnaire.ChoiceLeft))
	if err != nil {
		t.Fatal(err)
	}
	return doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", payload, nil)
}

// tripBreaker arms the fault and uploads until the breaker opens.
func tripBreaker(t *testing.T, srv *Server, prep *aggregator.Prepared, ffs *store.FaultFS, g *guard.Guard) {
	t.Helper()
	ffs.FailAppendsAfter(0, nil, false)
	for i := 0; i < 20 && g.Breaker().State() != guard.StateOpen; i++ {
		rec := postUpload(t, srv, prep, "trip-worker-"+string(rune('a'+i)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("upload during fault: status = %d, want 503: %s", rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("503 during fault must carry Retry-After")
		}
	}
	if g.Breaker().State() != guard.StateOpen {
		t.Fatal("breaker did not open under consecutive store faults")
	}
}

// TestDegradedModeE2E is the acceptance flow: FaultFS forces the breaker
// open; test info and results still answer, marked
// X-Kscope-Degraded: 1; uploads get 503 + Retry-After; /readyz reports
// degraded; the guard metrics are visible in /metrics; and after the disk
// recovers, a probe upload closes the breaker and fresh results match the
// from-scratch oracle.
func TestDegradedModeE2E(t *testing.T) {
	srv, prep, ffs, clock := prepGuardedTest(t, guard.Config{
		MaxInflight:      8,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		BreakerProbes:    1,
	})
	g, reg := srv.guard, srv.reg

	// Healthy phase: one stored session, results cached.
	if rec := postUpload(t, srv, prep, "w-healthy"); rec.Code != http.StatusCreated {
		t.Fatalf("healthy upload: %d: %s", rec.Code, rec.Body.String())
	}
	var before Results
	if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &before); rec.Code != http.StatusOK {
		t.Fatalf("healthy results: %d", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodGet, "/readyz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz while healthy = %d", rec.Code)
	}

	tripBreaker(t, srv, prep, ffs, g)

	// Degraded reads: live state with the degraded marker.
	var info TestInfo
	rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test", nil, &info)
	if rec.Code != http.StatusOK || rec.Header().Get(DegradedHeader) != "1" {
		t.Fatalf("degraded test info: status=%d degraded=%q", rec.Code, rec.Header().Get(DegradedHeader))
	}
	if info.TestID != "srv-test" {
		t.Errorf("degraded info = %+v", info)
	}
	var during Results
	rec = doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &during)
	if rec.Code != http.StatusOK || rec.Header().Get(DegradedHeader) != "1" {
		t.Fatalf("degraded results: status=%d degraded=%q", rec.Code, rec.Header().Get(DegradedHeader))
	}
	if !reflect.DeepEqual(before, during) {
		t.Errorf("degraded results differ from last good conclusion:\nbefore %+v\nduring %+v", before, during)
	}
	// Task payloads degrade the same way.
	rec = doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/task", nil, nil)
	if rec.Code != http.StatusOK || rec.Header().Get(DegradedHeader) != "1" {
		t.Errorf("degraded task: status=%d degraded=%q", rec.Code, rec.Header().Get(DegradedHeader))
	}

	// Uncacheable writes: 503 + Retry-After.
	rec = postUpload(t, srv, prep, "w-during-outage")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("upload while open: status=%d retry-after=%q", rec.Code, rec.Header().Get("Retry-After"))
	}

	// Readiness and metrics reflect the open breaker.
	if rec := doJSON(t, srv, http.MethodGet, "/readyz", nil, nil); rec.Code != http.StatusServiceUnavailable ||
		rec.Header().Get("Retry-After") == "" {
		t.Errorf("readyz while open: status=%d retry-after=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	metrics := sb.String()
	for _, want := range []string{
		"kscope_guard_breaker_state 2",
		"kscope_guard_breaker_trips_total 1",
		"kscope_guard_degraded_total",
		"kscope_guard_shed_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if g.DegradedServes() < 3 {
		t.Errorf("degraded serves = %d, want >= 3", g.DegradedServes())
	}

	// Recovery: the disk heals, the cooldown elapses, and the next upload
	// is the half-open probe that closes the breaker.
	ffs.Reset()
	clock.advance(30 * time.Millisecond)
	if rec := postUpload(t, srv, prep, "w-recovered"); rec.Code != http.StatusCreated {
		t.Fatalf("probe upload after recovery: %d: %s", rec.Code, rec.Body.String())
	}
	if got := g.Breaker().State(); got != guard.StateClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
	if rec := doJSON(t, srv, http.MethodGet, "/readyz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("readyz after recovery = %d", rec.Code)
	}

	// Fresh results include both stored sessions and match the oracle.
	var after Results
	rec = doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, &after)
	if rec.Code != http.StatusOK || rec.Header().Get(DegradedHeader) != "" {
		t.Fatalf("post-recovery results: status=%d degraded=%q", rec.Code, rec.Header().Get(DegradedHeader))
	}
	if after.Workers != 2 {
		t.Errorf("post-recovery workers = %d, want 2", after.Workers)
	}
	oracle, err := srv.ConcludeScratch("srv-test", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&after, oracle) {
		t.Errorf("post-recovery results diverge from oracle:\ngot    %+v\noracle %+v", &after, oracle)
	}
}

// TestDegradedReadsAreLive: with the breaker open, reads serve the node's
// live memory, marked degraded — a session acknowledged after the last
// /results is counted, and a conclusion or session list never asked for
// before the outage answers all the same.
func TestDegradedReadsAreLive(t *testing.T) {
	srv, prep, ffs, _ := prepGuardedTest(t, guard.Config{
		MaxInflight:      8,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // stays open for the whole test
	})
	g := srv.guard

	if rec := postUpload(t, srv, prep, "w1"); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/results", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("results: %d", rec.Code)
	}
	if rec := postUpload(t, srv, prep, "w2"); rec.Code != http.StatusCreated {
		t.Fatalf("upload 2: %d", rec.Code)
	}
	tripBreaker(t, srv, prep, ffs, g)

	for _, useQC := range []bool{false, true} {
		path := "/api/tests/srv-test/results"
		if useQC {
			path += "?quality=1"
		}
		var got Results
		rec := doJSON(t, srv, http.MethodGet, path, nil, &got)
		if rec.Code != http.StatusOK || rec.Header().Get(DegradedHeader) != "1" {
			t.Fatalf("GET %s, breaker open: status=%d degraded=%q: %s",
				path, rec.Code, rec.Header().Get(DegradedHeader), rec.Body.String())
		}
		want, err := srv.ConcludeScratch("srv-test", useQC)
		if err != nil {
			t.Fatal(err)
		}
		if want.Workers != 2 || !reflect.DeepEqual(&got, want) {
			t.Errorf("GET %s, breaker open:\ngot    %+v\noracle %+v (want 2 workers)", path, &got, want)
		}
	}
	var sessions []SessionUpload
	rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/sessions", nil, &sessions)
	if rec.Code != http.StatusOK || rec.Header().Get(DegradedHeader) != "1" {
		t.Fatalf("session list, breaker open: status=%d degraded=%q", rec.Code, rec.Header().Get(DegradedHeader))
	}
	if len(sessions) != 2 || sessions[0].WorkerID != "w1" || sessions[1].WorkerID != "w2" {
		t.Errorf("session list, breaker open: %d sessions %+v, want w1 and w2", len(sessions), sessions)
	}
}

// TestReadIsNeverTheBreakerProbe: after the cooldown, a read of a missing
// test answers 404 and leaves the breaker open; only a write probes it.
func TestReadIsNeverTheBreakerProbe(t *testing.T) {
	srv, prep, ffs, clock := prepGuardedTest(t, guard.Config{MaxInflight: 8, BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond})
	g := srv.guard
	tripBreaker(t, srv, prep, ffs, g)
	clock.advance(30 * time.Millisecond)

	if rec := doJSON(t, srv, http.MethodGet, "/api/tests/ghost", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET a missing test = %d, want 404", rec.Code)
	}
	if got := g.Breaker().State(); got != guard.StateOpen {
		t.Errorf("breaker after a read past the cooldown = %v, want open", got)
	}
	if rec := doJSON(t, srv, http.MethodGet, "/readyz", nil, nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after a read past the cooldown = %d, want 503", rec.Code)
	}
}

// TestReadsDoNotResetBreakerFailures: failing uploads interleaved with reads
// still trip the breaker — a read is no evidence of store health.
func TestReadsDoNotResetBreakerFailures(t *testing.T) {
	srv, prep, ffs, _ := prepGuardedTest(t, guard.Config{MaxInflight: 8, BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond})
	g := srv.guard
	ffs.FailAppendsAfter(0, nil, false)
	for i := 0; i < 10; i++ {
		if rec := postUpload(t, srv, prep, fmt.Sprintf("w%d", i)); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("upload %d on a failing disk = %d, want 503", i, rec.Code)
		}
		if rec := doJSON(t, srv, http.MethodGet, "/api/tests/ghost", nil, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("GET a missing test = %d, want 404", rec.Code)
		}
	}
	if trips, state := g.Breaker().Trips(), g.Breaker().State(); trips < 1 || state != guard.StateOpen {
		t.Errorf("10 failing uploads between reads: %d trips, breaker %v; want tripped and open", trips, state)
	}
}

// TestAdmissionShedSetsRetryAfter: a saturated class sheds with 429 and the
// header every time.
func TestAdmissionShedSetsRetryAfter(t *testing.T) {
	srv, _, _, _ := prepGuardedTest(t, guard.Config{
		MaxInflight: 1,
		Inflight:    map[guard.Class]int{guard.ClassRead: 1},
		Queue:       map[guard.Class]int{guard.ClassRead: 0},
		QueueWait:   5 * time.Millisecond,
	})
	g := srv.guard

	// Occupy the single read slot out-of-band, as a slow in-flight request
	// would.
	release, ok := g.Admit(nil, guard.ClassRead)
	if !ok {
		t.Fatal("slot acquisition failed")
	}
	defer release()

	for i := 0; i < 3; i++ {
		rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test", nil, nil)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("shed status = %d, want 429: %s", rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("shed 429 must carry Retry-After")
		}
	}
	if g.Shed(guard.ClassRead) != 3 {
		t.Errorf("shed count = %d, want 3", g.Shed(guard.ClassRead))
	}
	// Exempt endpoints still answer while the API is saturated.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if rec := doJSON(t, srv, http.MethodGet, path, nil, nil); rec.Code != http.StatusOK {
			t.Errorf("%s under saturation = %d, want 200", path, rec.Code)
		}
	}
}

// TestWorkerRateLimit: one hot worker is throttled with 429 + Retry-After;
// an independent worker is not.
func TestWorkerRateLimit(t *testing.T) {
	srv, _, _, _ := prepGuardedTest(t, guard.Config{
		MaxInflight: 8,
		Rate:        1,
		Burst:       2,
	})

	get := func(worker string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/api/tests/srv-test", nil)
		req.Header.Set(guard.WorkerIDHeader, worker)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	for i := 0; i < 2; i++ {
		if rec := get("hot"); rec.Code != http.StatusOK {
			t.Fatalf("burst request %d = %d", i, rec.Code)
		}
	}
	rec := get("hot")
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("hot worker: status=%d retry-after=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if rec := get("calm"); rec.Code != http.StatusOK {
		t.Errorf("independent worker throttled: %d", rec.Code)
	}
}

// TestCanceledUploadNotPersisted is the regression for the client-disconnect
// fix: a request whose context is already canceled must not store a
// session.
func TestCanceledUploadNotPersisted(t *testing.T) {
	srv, prep := prepTest(t)
	payload, err := json.Marshal(sampleUpload(prep, "gone-worker", questionnaire.ChoiceLeft))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions",
		strings.NewReader(string(payload))).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Errorf("canceled upload status = %d, want %d", rec.Code, http.StatusRequestTimeout)
	}
	if n := srv.db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "srv-test"); n != 0 {
		t.Errorf("canceled request persisted %d sessions, want 0", n)
	}
	// The same worker can upload for real afterwards — nothing half-stored.
	if rec := postUpload(t, srv, prep, "gone-worker"); rec.Code != http.StatusCreated {
		t.Errorf("re-upload after cancel = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestCanceledResultsConclusion: a disconnected client does not get a tally
// computed on its behalf.
func TestCanceledResultsConclusion(t *testing.T) {
	srv, prep := prepTest(t)
	if rec := postUpload(t, srv, prep, "w1"); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d", rec.Code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/tests/srv-test/results", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Errorf("canceled results status = %d, want %d", rec.Code, http.StatusRequestTimeout)
	}
}
