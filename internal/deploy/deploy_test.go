package deploy

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/shard"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// TestValidate is the mode-exclusion matrix: what used to be three switch
// branches in kscope-server's run() and replConfig.validate.
func TestValidate(t *testing.T) {
	router := []shard.Spec{{Name: "a", Primary: "http://a:1"}}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"plain node", Config{Store: "/s"}, ""},
		{"plain node over an open store", Config{DB: store.OpenMemory()}, ""},
		{"primary", Config{Store: "/s", ReplicateTo: "http://b:2"}, ""},
		{"standby", Config{Store: "/s", ReplicaOf: "http://a:1"}, ""},
		{"router", Config{Shards: router, Guard: &guard.Config{MaxInflight: 64}}, ""},
		{"engine on a node", Config{Store: "/s", EarlyStopAlpha: 0.05}, ""},

		{"no store", Config{}, "-store is required"},
		{"standby without a store", Config{ReplicaOf: "http://a:1"}, "-store is required"},
		{"primary and standby at once", Config{Store: "/s", ReplicateTo: "http://b:2", ReplicaOf: "http://a:1"}, "mutually exclusive"},
		{"alpha above 1", Config{Store: "/s", EarlyStopAlpha: 1.5}, "need 0 < alpha < 1"},
		{"alpha below 0", Config{Store: "/s", EarlyStopAlpha: -0.1}, "need 0 < alpha < 1"},
		{"replicated over a handed-in store", Config{DB: store.OpenMemory(), ReplicateTo: "http://b:2"}, "opens its own store"},
		{"router with a store", Config{Shards: router, Store: "/s"}, "-shards and -store"},
		{"router with an open store", Config{Shards: router, DB: store.OpenMemory()}, "-shards and -store"},
		{"router that replicates", Config{Shards: router, ReplicateTo: "http://b:2"}, "-shards and -replicate-to"},
		{"router that stands by", Config{Shards: router, ReplicaOf: "http://b:2"}, "-shards and -replicate-to"},
		{"router with an engine", Config{Shards: router, EarlyStopAlpha: 0.05}, "-shards and -earlystop-alpha"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("valid config rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("Validate = %v, want error containing %q", err, tc.want)
			}
			if tc.want == "" || err == nil {
				return
			}
			if _, openErr := Open(tc.cfg); openErr == nil || openErr.Error() != err.Error() {
				t.Errorf("Open = %v, want Validate's error %v", openErr, err)
			}
		})
	}
}

// prepared builds a storage directory holding one prepared test ("served").
func prepared(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := store.Open(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
	return dir
}

// upload posts one minimal session and returns the recorded answer.
func upload(h http.Handler, worker string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/tests/served/sessions",
		strings.NewReader(`{"test_id":"served","worker_id":"`+worker+`"}`)))
	return rec
}

func storedSessions(db *store.DB) int {
	return db.Collection(aggregator.ResponsesCollection).CountEq("test_id", "served")
}

// startPair brings up a standby on a loopback listener and the primary
// that ships to it.
func startPair(t *testing.T) (primary, standby *Deployment, standbyDir string) {
	t.Helper()
	standbyDir = t.TempDir()
	standby, err := Open(Config{Store: standbyDir, ReplicaOf: "http://primary.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(standby)
	t.Cleanup(ts.Close)
	primary, err = Open(Config{Store: prepared(t), ReplicateTo: ts.URL, Epoch: 1,
		RetryInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	return primary, standby, standbyDir
}

// TestPromotedStandbyOwnsItsStore: kscope-server used to drop both the
// store Promote opened and the cleanup of the stack built over it, so a
// promoted standby was never flushed or closed on SIGTERM. The deployment
// owns the promoted store: Close closes it, and what it acknowledged is
// there when the directory is opened again.
func TestPromotedStandbyOwnsItsStore(t *testing.T) {
	primary, standby, standbyDir := startPair(t)
	if rec := upload(primary, "w1"); rec.Code != http.StatusCreated {
		t.Fatalf("upload through the primary = %d: %s", rec.Code, rec.Body)
	}
	if primary.Primary == nil || primary.Serving().Guard != nil || standby.Serving() != nil {
		t.Fatalf("unexpected shape: primary %+v, standby serving %+v", primary, standby.Serving())
	}
	if rec := upload(standby, "w2"); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("unpromoted standby answered %d (Retry-After %q), want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}

	epoch, err := standby.Promote()
	if err != nil || epoch != 2 {
		t.Fatalf("Promote = epoch %d, %v; want epoch 2", epoch, err)
	}
	if _, err := standby.Promote(); err == nil {
		t.Error("second Promote succeeded")
	}
	rec := upload(standby, "w2")
	if rec.Code != http.StatusCreated || rec.Header().Get(server.EpochHeader) != "2" {
		t.Fatalf("upload to the promoted standby = %d (epoch %q): %s", rec.Code, rec.Header().Get(server.EpochHeader), rec.Body)
	}
	// The deposed primary's next write is refused by the standby's epoch.
	if rec := upload(primary, "w3"); rec.Code != http.StatusServiceUnavailable || rec.Header().Get(server.FencedHeader) != "1" {
		t.Errorf("zombie primary answered %d (fenced %q), want 503 fenced", rec.Code, rec.Header().Get(server.FencedHeader))
	}

	db := standby.Serving().DB
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	if err := standby.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := db.Collection(aggregator.ResponsesCollection).InsertUnique(store.Document{"_id": "served/late"}); !errors.Is(err, store.ErrClosed) {
		t.Errorf("insert into the promoted store after Close = %v, want store.ErrClosed", err)
	}
	if _, err := standby.Promote(); err == nil {
		t.Error("Promote after Close succeeded")
	}
	reopened, err := store.Open(filepath.Join(standbyDir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := storedSessions(reopened); got != 2 {
		t.Errorf("promoted store reopened with %d sessions, want w1 (replicated) and w2 (acked after promotion)", got)
	}
}

// TestStandbyCloseSavesPosition: an unpromoted standby's Close is the
// follower's graceful stop, and a plain node cannot be promoted.
func TestStandbyCloseSavesPosition(t *testing.T) {
	primary, standby, standbyDir := startPair(t)
	if rec := upload(primary, "w1"); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d: %s", rec.Code, rec.Body)
	}
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(Config{Store: standbyDir, ReplicaOf: "http://primary.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if seq := again.follower.AckedSeq(); seq == 0 {
		t.Error("restarted standby lost its position: Close did not save it")
	}
	if _, err := primary.Promote(); err == nil {
		t.Error("a primary let itself be promoted")
	}
}

// TestRouterOverNodes: a router deployment routes to plain-node
// deployments, each link through the Link seam.
func TestRouterOverNodes(t *testing.T) {
	node, err := Open(Config{Store: prepared(t), Guard: &guard.Config{MaxInflight: 8}, EarlyStopAlpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ts := httptest.NewServer(node)
	defer ts.Close()
	var dialed []string
	router, err := Open(Config{
		Shards: []shard.Spec{{Name: "s0", Primary: ts.URL}},
		Link: func(peer string) http.RoundTripper {
			dialed = append(dialed, peer)
			return http.DefaultTransport
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if router.Router == nil || router.Serving() != nil || len(dialed) != 1 || dialed[0] != ts.URL {
		t.Fatalf("router shape: Router %v, serving %v, links %v", router.Router, router.Serving(), dialed)
	}
	if rec := upload(router, "w1"); rec.Code != http.StatusCreated {
		t.Fatalf("upload through the router = %d: %s", rec.Code, rec.Body)
	}
	if got := storedSessions(node.Serving().DB); got != 1 || node.Serving().Guard == nil {
		t.Errorf("node holds %d sessions (guard %v), want 1 behind a guard", got, node.Serving().Guard)
	}
	if _, err := Open(Config{Store: filepath.Join(t.TempDir(), "file\x00")}); err == nil {
		t.Error("Open over an impossible directory succeeded")
	}
}
