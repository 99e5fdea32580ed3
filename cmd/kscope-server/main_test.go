package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/deploy"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

func TestBuildHandlerValidation(t *testing.T) {
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "-store is required") {
		t.Errorf("run without -store = %v, want the -store is required error", err)
	}
}

func TestGuardConfigFlags(t *testing.T) {
	if guardConfig(0, 5, 0) != nil {
		t.Error("max-inflight 0 must disable the guard")
	}
	cfg := guardConfig(32, 5, 0)
	if cfg == nil || cfg.MaxInflight != 32 || cfg.Rate != 5 || cfg.Burst != 10 {
		t.Errorf("guardConfig(32, 5, 0) = %+v, want burst defaulted to 2x rate", cfg)
	}
	if cfg := guardConfig(32, 5, 3); cfg.Burst != 3 {
		t.Errorf("explicit burst overridden: %+v", cfg)
	}
}

// prepareStore builds a storage directory holding one prepared test
// ("served") and returns its path.
func prepareStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := store.Open(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := store.OpenBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test := &params.Test{
		TestID: "served", WebpageNum: 2, TestDescription: "d", ParticipantNum: 1,
		Questions: []string{"q?"},
		Webpages: []params.Webpage{
			{WebPath: "a", WebPageLoad: params.PageLoadSpec{UniformMillis: 100}, WebMainFile: "index.html"},
			{WebPath: "b", WebPageLoad: params.PageLoadSpec{UniformMillis: 100}, WebMainFile: "index.html"},
		},
	}
	sites := map[string]*webgen.Site{
		"a": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, Sections: 1, ParagraphsPerSection: 1}),
		"b": webgen.WikiArticle(webgen.WikiConfig{Seed: 2, Sections: 1, ParagraphsPerSection: 1}),
	}
	if _, err := agg.Prepare(test, sites, nil); err != nil {
		t.Fatal(err)
	}
	db.Close()
	return dir
}

func TestBuildServerServesPreparedStore(t *testing.T) {
	dir := prepareStore(t)
	srv, err := deploy.Open(deploy.Config{Store: dir, Guard: guardConfig(64, 0, 0)})
	if err != nil {
		t.Fatalf("deploy.Open: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/tests/served")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(body), "served") {
		t.Errorf("status=%d body=%s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header from obs middleware")
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`kscope_http_requests_total{route="GET /api/tests/{id}",status="200"} 1`,
		"kscope_cache_hit_ratio",
		"kscope_store_index_hits_total",
		"kscope_store_recovered_tails_total 0",
		"kscope_store_quarantined_records_total 0",
		"kscope_store_wal_appends_total",
		"kscope_store_fsyncs_total",
		"kscope_store_fsync_seconds_total",
		"kscope_store_cold_reads_total",
		"kscope_http_inflight_requests 1", // the /metrics request itself
		"kscope_guard_breaker_state 0",
		"kscope_guard_shed_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The guarded server exposes readiness.
	rresp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d, want 200", rresp.StatusCode)
	}
}

// TestServeDrainsInFlightUploads is the shutdown acceptance: a SIGTERM
// (modelled by ctx cancellation, which is exactly what
// signal.NotifyContext produces) arriving while a session upload is in
// flight must let the upload finish, and the acknowledged session must be
// on disk after the store closes.
func TestServeDrainsInFlightUploads(t *testing.T) {
	dir := prepareStore(t)
	handler, err := deploy.Open(deploy.Config{Store: dir, Guard: guardConfig(64, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}

	// Hold the upload in flight until shutdown has begun.
	var startOnce sync.Once
	uploadStarted := make(chan struct{})
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			startOnce.Do(func() { close(uploadStarted) })
			<-release
		}
		handler.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: slow}
	// Shutdown closes the listeners before it runs these hooks.
	listenerClosed := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(listenerClosed) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ctx, srv, ln, 5*time.Second) }()

	uploadDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(
			"http://"+ln.Addr().String()+"/api/tests/served/sessions",
			"application/json",
			strings.NewReader(`{"test_id":"served","worker_id":"drain-worker"}`),
		)
		if err != nil {
			uploadDone <- err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusCreated {
			uploadDone <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
			return
		}
		uploadDone <- nil
	}()

	<-uploadStarted
	cancel() // the SIGTERM
	// The listener is closed while the upload is still blocked: the drain
	// window is what keeps it alive.
	<-listenerClosed
	close(release)

	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := <-uploadDone; err != nil {
		t.Fatalf("in-flight upload dropped during shutdown: %v", err)
	}
	handler.Close() // flush + close the store, as run()'s defer does

	db, err := store.Open(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	got := db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "served")
	if got != 1 {
		t.Errorf("sessions on disk after drain = %d, want 1", got)
	}
}

// TestServeReturnsListenerError: a serve whose listener dies reports the
// error instead of hanging.
func TestServeReturnsListenerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.NotFoundHandler()}
	ln.Close() // Serve fails immediately
	if err := serve(context.Background(), srv, ln, time.Second); err == nil {
		t.Error("serve on a closed listener should fail")
	}
}
