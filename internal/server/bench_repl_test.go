package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/replica"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// benchPrepareInto prepares the standard srv-test fixture into an
// already-open database (prepTest always opens its own memory store; the
// replication benchmarks need dir-backed and replicated ones).
func benchPrepareInto(b *testing.B, db *store.DB) (*Server, *aggregator.Prepared) {
	b.Helper()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		b.Fatal(err)
	}
	test := &params.Test{
		TestID:          "srv-test",
		WebpageNum:      2,
		TestDescription: "replication bench",
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
		b.Fatal(err)
	}
	srv, err := New(db, blobs)
	if err != nil {
		b.Fatal(err)
	}
	return srv, prep
}

// uploadLoop drives b.N single-session POSTs through srv.
func uploadLoop(b *testing.B, srv *Server, prep *aggregator.Prepared) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		payload := benchSessionPayload(b, prep, i)
		req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		b.StartTimer()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkSessionUploadDurable is the replication baseline: the same
// single-session path over a dir-backed SyncAlways store, no follower.
// BenchmarkSessionUploadReplicated divides against this, not against the
// memory-backed BenchmarkSessionUploadHTTP — the overhead budget should
// price the follower round-trip, not the fsync.
func BenchmarkSessionUploadDurable(b *testing.B) {
	db, err := store.Open(b.TempDir(), store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv, prep := benchPrepareInto(b, db)
	uploadLoop(b, srv, prep)
}

// BenchmarkSessionUploadReplicated is the full warm-standby write path: a
// dir-backed SyncAlways store whose every WAL append is framed, shipped to
// a loopback HTTP follower, applied and fsynced there, and only then
// acknowledged (AckFollower). The final lag-frames metric must be zero —
// an acked upload with nonzero lag would mean the ack mode lies.
func BenchmarkSessionUploadReplicated(b *testing.B) {
	follower, err := replica.NewFollower(replica.FollowerConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	fts := httptest.NewServer(follower)
	defer fts.Close()
	prim, err := replica.NewPrimary(replica.PrimaryConfig{
		FollowerURL:   fts.URL,
		Epoch:         1,
		Mode:          replica.AckFollower,
		RetryInterval: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer prim.Close()
	db, err := store.OpenBackend(store.Replicated(b.TempDir(), prim),
		store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	prim.Bind(db)
	srv, prep := benchPrepareInto(b, db)
	uploadLoop(b, srv, prep)
	b.StopTimer()
	lagFrames, _ := prim.Lag()
	b.ReportMetric(float64(lagFrames), "lag-frames")
	if lagFrames != 0 {
		b.Fatalf("replication lag after acked uploads = %d frames, want 0", lagFrames)
	}
}
