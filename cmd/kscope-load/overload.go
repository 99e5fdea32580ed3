package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// Overload-scenario tuning: a deliberately tiny admission base K (so the
// fleet saturates it), a hair-trigger breaker, and a short cooldown so the
// outage→recovery cycle fits a smoke run.
const (
	overloadQueueWait = 25 * time.Millisecond
	overloadThreshold = 3
	overloadCooldown  = 150 * time.Millisecond
	overloadProbes    = 2
	overloadMinRetry  = 60
	maxWorkerWait     = 20 * time.Millisecond
	monitorTimeout    = 30 * time.Second
	p99Bound          = 5.0 // seconds, per route — "bounded", not "fast"
)

// overload is the guard acceptance scenario: the fleet runs at 4x the
// admission base K, mid-run the store's filesystem starts failing every WAL
// append until the circuit breaker opens, a monitor then proves degraded
// mode (cached reads with X-Kscope-Degraded: 1, guard metrics exported),
// heals the disk, and the run must still end with zero lost workers, only
// {200,201,409,429,503} at the listener, Retry-After on every shed,
// bounded p99, and incremental results equal to the from-scratch oracle.
func overload(cfg config, out io.Writer) error {
	if cfg.workers < 12 {
		return fmt.Errorf("overload scenario needs at least 12 workers (got %d)", cfg.workers)
	}
	k := cfg.concurrency / 4
	if k < 1 {
		k = 1
	}
	g := guard.New(guard.Config{
		MaxInflight: k,
		// Pin the read class to K too (instead of the serving default 4K)
		// and give it no queue: the page-fetch stream is the high-volume
		// traffic, so this is what actually makes admission shed under a
		// 4K-concurrent fleet.
		Inflight:         map[guard.Class]int{guard.ClassRead: k},
		Queue:            map[guard.Class]int{guard.ClassRead: 0},
		QueueWait:        overloadQueueWait,
		BreakerThreshold: overloadThreshold,
		BreakerCooldown:  overloadCooldown,
		BreakerProbes:    overloadProbes,
		RetryAfter:       time.Second,
	})
	srv, reg, ffs, cleanup, err := buildOverloadServer(g)
	if err != nil {
		return err
	}
	defer cleanup()

	var statuses statusTable
	ts := httptest.NewServer(statuses.wrap(obs.Middleware(srv, nil, reg, server.RouteLabel)))
	defer ts.Close()

	// Prime the results caches so degraded mode has a last-known-good
	// conclusion even if the outage lands before any mid-run poll.
	for _, q := range []string{"", "?quality=1"} {
		if err := expectGet(ts.URL+"/api/tests/"+testID+"/results"+q, http.StatusOK, ""); err != nil {
			return fmt.Errorf("priming results cache: %w", err)
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	popFn := crowd.OpenCrowd
	if cfg.trusted {
		popFn = crowd.TrustedCrowd
	}
	pop, err := popFn(cfg.workers, rng)
	if err != nil {
		return err
	}

	// The stampede: the moment a test is posted, the whole crowd fetches it
	// at once. With all K read slots occupied by slow in-flight readers
	// (held directly, since cache-hit handlers finish too fast to pile up
	// on their own), a volley of 16K concurrent reads must shed entirely
	// with 429 + Retry-After, and reads must flow again once the slow
	// readers finish.
	infoURL := ts.URL + "/api/tests/" + testID
	held := make([]func(), 0, k)
	for i := 0; i < k; i++ {
		release, admitted := g.Admit(nil, guard.ClassRead)
		if !admitted {
			return fmt.Errorf("could not occupy read slot %d/%d", i+1, k)
		}
		held = append(held, release)
	}
	served, shed := stampede(infoURL, 16*k)
	for _, release := range held {
		release()
	}
	if served != 0 || shed != int64(16*k) {
		return fmt.Errorf("stampede of %d reads against a saturated K=%d: %d served, %d shed — admission control did not engage",
			16*k, k, served, shed)
	}
	if err := expectGet(infoURL, http.StatusOK, ""); err != nil {
		return fmt.Errorf("read after saturation cleared: %w", err)
	}

	retries := cfg.retries
	if retries < overloadMinRetry {
		// The outage window spans many client retries; the budget must
		// outlast breaker cooldown plus recovery probing.
		retries = overloadMinRetry
	}
	armAt := cfg.workers / 3
	var armOnce sync.Once
	monitorDone := make(chan error, 1)

	fleet := &extension.Fleet{
		BaseURL: ts.URL,
		Answer:  extension.AnswerFontSize(),
		Seed:    cfg.seed,
		// 4K workers in flight against an upload class admitting K: the
		// admission limiter, not goroutine supply, is the bottleneck.
		Concurrency: 4 * k,
		Policy:      failover.Policy{Retries: retries, Backoff: 2 * time.Millisecond, MaxRetryAfter: maxWorkerWait},
		Registry:    reg,
		Transport: func(i int) http.RoundTripper {
			t, err := netsim.NewChaosTransport(http.DefaultTransport,
				netsim.ChaosConfig{DropRate: cfg.drop, FaultRate: cfg.fault},
				rand.New(rand.NewSource(cfg.seed+int64(i)+7919)))
			if err != nil {
				panic(err) // only reachable with a nil rng
			}
			return t
		},
		OnResult: func(done int, _ extension.WorkerResult) {
			if done < armAt {
				return
			}
			armOnce.Do(func() {
				// The disk "fills up": every WAL append fails from here on.
				ffs.FailAppendsAfter(0, nil, false)
				go func() { monitorDone <- degradedMonitor(ts.URL, g, ffs) }()
			})
		},
	}

	report, err := fleet.Run(testID, pop)
	if err != nil {
		return err
	}

	var monErr error
	select {
	case monErr = <-monitorDone:
	case <-time.After(monitorTimeout):
		monErr = fmt.Errorf("degraded-mode monitor never finished")
	}

	fmt.Fprintf(out, "kscope-load overload: %d workers, fleet concurrency %d vs admission K=%d (seed %d)\n",
		cfg.workers, 4*k, k, cfg.seed)
	fmt.Fprintf(out, "sessions: %d completed, %d failed, %d client retries\n",
		report.Completed, report.Failed, report.Retries)
	fmt.Fprintf(out, "guard: %d breaker trips, breaker now %v, %d degraded serves, sheds by class:",
		g.Breaker().Trips(), g.Breaker().State(), g.DegradedServes())
	for c := guard.Class(0); c < guard.NumClasses; c++ {
		fmt.Fprintf(out, " %s=%d", c, g.Shed(c))
	}
	fmt.Fprintln(out)
	printLatencies(out, reg)
	statuses.print(out)

	if monErr != nil {
		return fmt.Errorf("degraded-mode check: %w", monErr)
	}
	if report.Failed > 0 {
		return fmt.Errorf("%d of %d workers lost under overload: %v", report.Failed, cfg.workers, report.Errs)
	}
	if bad := statuses.unexpected(http.StatusTooManyRequests, http.StatusServiceUnavailable); len(bad) > 0 {
		return fmt.Errorf("server produced statuses outside the overload contract: %v", bad)
	}
	if n := statuses.retryAfterViolations(); n > 0 {
		return fmt.Errorf("%d shed responses (429/503) lacked Retry-After", n)
	}
	if g.Breaker().Trips() < 1 {
		return fmt.Errorf("the injected store faults never tripped the breaker")
	}
	if st := g.Breaker().State(); st != guard.StateClosed {
		return fmt.Errorf("breaker did not recover by end of run (state %v)", st)
	}
	if err := checkP99(reg); err != nil {
		return err
	}
	return verifyOracle(out, ts.URL, srv)
}

// stampede fires n concurrent GETs released by a single barrier and counts
// 200s vs 429 sheds. Any other status counts as neither, failing the
// caller's both-sides check.
func stampede(url string, n int) (ok, shed int64) {
	var okN, shedN atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(url)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				okN.Add(1)
			case http.StatusTooManyRequests:
				shedN.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	return okN.Load(), shedN.Load()
}

// degradedMonitor waits for the breaker to open, proves degraded serving
// end to end, then heals the filesystem so the run can recover.
func degradedMonitor(baseURL string, g *guard.Guard, ffs *store.FaultFS) error {
	deadline := time.Now().Add(monitorTimeout / 2)
	for g.Breaker().State() != guard.StateOpen {
		if time.Now().After(deadline) {
			return fmt.Errorf("breaker never opened after the fault was armed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Cached reads must answer, marked degraded.
	if err := expectGet(baseURL+"/api/tests/"+testID, http.StatusOK, "1"); err != nil {
		return fmt.Errorf("degraded test info: %w", err)
	}
	if err := expectGet(baseURL+"/api/tests/"+testID+"/results", http.StatusOK, "1"); err != nil {
		return fmt.Errorf("degraded results: %w", err)
	}
	// Readiness flips, liveness does not.
	if err := expectGet(baseURL+"/readyz", http.StatusServiceUnavailable, ""); err != nil {
		return fmt.Errorf("readyz while open: %w", err)
	}
	if err := expectGet(baseURL+"/healthz", http.StatusOK, ""); err != nil {
		return fmt.Errorf("healthz while open: %w", err)
	}
	// The guard's state is visible on the metrics surface.
	body, err := getBody(baseURL + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{"kscope_guard_breaker_state 2", "kscope_guard_shed_total"} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("metrics missing %q while breaker open", want)
		}
	}
	ffs.Reset()
	return nil
}

// expectGet fetches url and checks the status plus (when degraded is
// non-empty) the X-Kscope-Degraded header value.
func expectGet(url string, wantStatus int, degraded string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if degraded != "" && resp.Header.Get(server.DegradedHeader) != degraded {
		return fmt.Errorf("GET %s: %s = %q, want %q",
			url, server.DegradedHeader, resp.Header.Get(server.DegradedHeader), degraded)
	}
	return nil
}

func getBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// checkP99 enforces the "bounded latency" clause: even under overload,
// admission control must keep served requests fast — queues are bounded, so
// p99 cannot grow into the tens of seconds an unprotected server shows.
func checkP99(reg *obs.Registry) error {
	for _, route := range []string{
		"GET /api/tests/{id}",
		"POST /api/tests/{id}/sessions",
		"GET /api/tests/{id}/results",
	} {
		h := reg.Histogram(obs.MetricRequestDuration, obs.DefLatencyBuckets, "route", route)
		if h.Count() == 0 {
			continue
		}
		if p99 := h.Quantile(0.99); p99 > p99Bound {
			return fmt.Errorf("route %s p99 = %.2fs exceeds the %gs overload bound", route, p99, p99Bound)
		}
	}
	return nil
}

// buildOverloadServer is buildServer's fault-injectable variant: the same
// two-version font-size study, but the document store lives on a real
// directory behind a FaultFS (so the scenario can fail WAL appends), and
// the supplied guard is wired in with its metrics registered.
func buildOverloadServer(g *guard.Guard) (*server.Server, *obs.Registry, *store.FaultFS, func(), error) {
	dir, err := os.MkdirTemp("", "kscope-overload-*")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fail := func(err error) (*server.Server, *obs.Registry, *store.FaultFS, func(), error) {
		os.RemoveAll(dir)
		return nil, nil, nil, nil, err
	}
	ffs := store.NewFaultFS()
	db, err := store.Open(filepath.Join(dir, "db"), store.WithFileSystem(ffs))
	if err != nil {
		return fail(err)
	}
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		db.Close()
		return fail(err)
	}
	test := &params.Test{
		TestID:          testID,
		WebpageNum:      2,
		TestDescription: "kscope-load overload study",
		ParticipantNum:  10,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "wiki-12", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: "wiki-22", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
	sites := map[string]*webgen.Site{
		"wiki-12": webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: 12}),
		"wiki-22": webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: 22}),
	}
	if _, err := agg.Prepare(test, sites, nil); err != nil {
		db.Close()
		return fail(err)
	}
	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	srv, err := server.New(db, blobs, server.WithObservability(reg), server.WithGuard(g))
	if err != nil {
		db.Close()
		return fail(err)
	}
	cleanup := func() {
		db.Close()
		os.RemoveAll(dir)
	}
	return srv, reg, ffs, cleanup, nil
}
