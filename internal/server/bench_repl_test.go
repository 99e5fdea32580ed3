package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/deploy"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
)

// benchNode prepares the srv-test fixture into a fresh storage directory,
// the state `kscope prepare` leaves behind, and opens the node cfg
// describes over it the way kscope-server does — through internal/deploy —
// with a store that fsyncs every append before it acknowledges.
func benchNode(b *testing.B, cfg deploy.Config) (*deploy.Deployment, *aggregator.Prepared) {
	b.Helper()
	cfg.Store, cfg.Blobs = b.TempDir(), store.NewBlobStore()
	db, err := store.Open(filepath.Join(cfg.Store, "db"))
	if err != nil {
		b.Fatal(err)
	}
	prep := server.PrepareOn(b, db, cfg.Blobs, "srv-test")
	db.Close()
	cfg.StoreOptions = []store.Option{store.WithSyncPolicy(store.SyncAlways)}
	node, err := deploy.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { node.Close() })
	return node, prep
}

// uploadLoop drives b.N single-session POSTs through node.
func uploadLoop(b *testing.B, node http.Handler, prep *aggregator.Prepared) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		payload := server.BenchSessionPayload(b, prep, i)
		req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		b.StartTimer()
		node.ServeHTTP(rec, req)
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
	node, prep := benchNode(b, deploy.Config{})
	uploadLoop(b, node, prep)
}

// BenchmarkSessionUploadReplicated is the full warm-standby write path: a
// dir-backed SyncAlways primary whose every WAL append is framed, shipped to
// a standby on a loopback listener, applied and fsynced there, and only then
// acknowledged. The final lag-frames metric must be zero — an acked upload
// with nonzero lag would mean the acknowledgement lies.
func BenchmarkSessionUploadReplicated(b *testing.B) {
	standby, err := deploy.Open(deploy.Config{Store: b.TempDir(), ReplicaOf: "the benchmark's primary"})
	if err != nil {
		b.Fatal(err)
	}
	defer standby.Close()
	fts := httptest.NewServer(standby)
	defer fts.Close()
	node, prep := benchNode(b, deploy.Config{ReplicateTo: fts.URL, Epoch: 1, RetryInterval: time.Millisecond})
	// The prepared documents reach the standby as a snapshot on first
	// contact; the clock starts once the standby has acknowledged them.
	if err := node.Primary.Barrier(); err != nil {
		b.Fatalf("replication stream not steady: %v, last error %v", err, node.Primary.LastErr())
	}
	uploadLoop(b, node, prep)
	b.StopTimer()
	lagFrames, _ := node.Primary.Lag()
	b.ReportMetric(float64(lagFrames), "lag-frames")
	if lagFrames != 0 {
		b.Fatalf("replication lag after acked uploads = %d frames, want 0", lagFrames)
	}
}
