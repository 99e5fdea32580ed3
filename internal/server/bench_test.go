package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
)

// benchFixture prepares a server whose responses collection holds noise
// sessions for foreignDocs other tests plus a handful of real sessions for
// srv-test. The serving path must not scale with foreignDocs: session
// lookups go through the test_id index and listing counts via CountEq.
func benchFixture(b *testing.B, foreignDocs int) *Server {
	b.Helper()
	srv, prep := prepTest(b)
	responses := srv.db.Collection(aggregator.ResponsesCollection)
	for i := 0; i < foreignDocs; i++ {
		testID := fmt.Sprintf("other-%03d", i%100)
		if _, err := responses.Insert(store.Document{
			store.IDField: fmt.Sprintf("%s/w%d", testID, i),
			"test_id":     testID,
			"worker_id":   fmt.Sprintf("w%d", i),
			"session":     "{}",
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		up := sampleUpload(prep, fmt.Sprintf("real-%d", i), questionnaire.ChoiceLeft)
		raw, _ := json.Marshal(up)
		doc := store.Document{
			store.IDField: "srv-test/" + up.WorkerID,
			"test_id":     "srv-test",
			"worker_id":   up.WorkerID,
			"session":     string(raw),
		}
		if _, err := responses.Insert(doc); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// BenchmarkListTests measures GET /api/tests with 10k foreign response
// documents in the collection. Session counts come from CountEq on the
// test_id index; compare -benchtime allocations against the scan floor by
// dropping the index declaration in New.
func BenchmarkListTests10kResponses(b *testing.B) {
	srv := benchFixture(b, 10_000)
	req := httptest.NewRequest(http.MethodGet, "/api/tests", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

// BenchmarkConclude measures a fresh conclusion (the record's served results
// dropped every iteration, as a new upload would) with 10k foreign response
// documents. The indexed FindEq keeps this proportional to srv-test's own
// five sessions.
func BenchmarkConclude10kResponses(b *testing.B) {
	srv := benchFixture(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.folds.dropServed("srv-test")
		res, err := srv.folds.results(context.Background(), "srv-test", true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Workers != 5 {
			b.Fatalf("workers = %d", res.Workers)
		}
	}
}

// seedSessions inserts n synthetic sessions for srv-test directly into the
// responses collection (bypassing HTTP, so fixture setup stays cheap at 10k).
func seedSessions(b *testing.B, srv *Server, prep *aggregator.Prepared, n int) {
	b.Helper()
	responses := srv.db.Collection(aggregator.ResponsesCollection)
	choices := []questionnaire.Choice{questionnaire.ChoiceLeft, questionnaire.ChoiceRight, questionnaire.ChoiceSame}
	for i := 0; i < n; i++ {
		up := sampleUpload(prep, fmt.Sprintf("w%05d", i), choices[i%len(choices)])
		raw, _ := json.Marshal(up)
		if _, err := responses.Insert(store.Document{
			store.IDField: "srv-test/" + up.WorkerID,
			"test_id":     "srv-test",
			"worker_id":   up.WorkerID,
			"session":     string(raw),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcludeScratch is the oracle cost: every iteration re-reads and
// re-decodes every stored session before filtering — the price the serving
// path paid per results request before the incremental engine.
func BenchmarkConcludeScratch(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			srv, prep := prepTest(b)
			seedSessions(b, srv, prep, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := srv.ConcludeScratch("srv-test", true)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Filtered {
					b.Fatal("expected quality-controlled results")
				}
			}
		})
	}
}

// BenchmarkConcludeIncremental measures the same quality-controlled results
// served from the live accumulator: the streaming state was folded in at
// upload time, so each conclusion re-evaluates cheap per-worker features
// instead of decoding n session payloads. The record's served results are
// dropped every iteration (as a fresh upload would), so this times the
// accumulator path, not a memoized read.
func BenchmarkConcludeIncremental(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			srv, prep := prepTest(b)
			seedSessions(b, srv, prep, n)
			// Warm the accumulator: first conclusion does the one-time
			// rebuild from storage.
			if _, err := srv.folds.results(context.Background(), "srv-test", true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.folds.dropServed("srv-test")
				res, err := srv.folds.results(context.Background(), "srv-test", true)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Filtered {
					b.Fatal("expected quality-controlled results")
				}
			}
		})
	}
}

// benchChoice alternates answers so a sequential engine, when one is wired,
// folds every session and never decides.
func benchChoice(i int) questionnaire.Choice {
	if i%2 == 1 {
		return questionnaire.ChoiceRight
	}
	return questionnaire.ChoiceLeft
}

// benchSessionPayload renders one upload with a unique worker id.
func benchSessionPayload(b *testing.B, prep *aggregator.Prepared, i int) []byte {
	b.Helper()
	payload, err := json.Marshal(sampleUpload(prep, fmt.Sprintf("bench-%09d", i), benchChoice(i)))
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

// foldedOpts wires what a serving node runs next to the handlers: the
// sequential engine, whose fold state every stored session goes through.
var foldedOpts = []Option{WithEarlyStop(EarlyStopConfig{Alpha: 0.05})}

// BenchmarkSessionUploadHTTP is the single-session hot path end to end:
// decode, validate, score, marshal, insert — one POST per session. Payload
// generation runs off the clock; allocs/op is the per-session handler cost.
// No engine and no results request: the test has no fold state, so this is
// the handler alone. BenchmarkSessionUploadFolded is the same path feeding
// live fold state.
func BenchmarkSessionUploadHTTP(b *testing.B)   { benchSessionUpload(b) }
func BenchmarkSessionUploadFolded(b *testing.B) { benchSessionUpload(b, foldedOpts...) }

func benchSessionUpload(b *testing.B, opts ...Option) {
	srv, prep := prepTest(b, opts...)
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
	benchCheckFolded(b, srv, b.N, len(opts) > 0)
}

// benchCheckFolded asserts the benchmark measured what its name says: with
// the engine wired every stored session was folded, exactly once, from the
// write path; without it nothing was.
func benchCheckFolded(b *testing.B, srv *Server, stored int, folded bool) {
	b.Helper()
	want := 0
	if folded {
		want = stored
	}
	if got := int(srv.folds.applied.Load()); got != want || int(srv.folds.folds.Load()) != want || srv.folds.rebuilds.Load() != 0 {
		b.Fatalf("folded %d sessions from the write path (%d into the engine, %d replays), want %d, %d, 0",
			got, srv.folds.folds.Load(), srv.folds.rebuilds.Load(), want, want)
	}
}

// batchBenchSessions is how many sessions each benchmark batch carries; the
// recorded per-session budget in BENCH_server.json divides allocs/op by
// this.
const batchBenchSessions = 100

// BenchmarkSessionBatchUploadHTTP is the batched hot path: one POST carries
// batchBenchSessions sessions through the streaming decoder, pooled decode
// state, and one WAL group commit. Divide allocs/op by batchBenchSessions
// for the per-session figure the CI allocation budget gates on; the
// sessions/s metric is the end-to-end rate including response rendering.
// Like the single pair, the HTTP variant has no fold state to feed and the
// Folded variant feeds the engine's.
func BenchmarkSessionBatchUploadHTTP(b *testing.B)   { benchSessionBatchUpload(b) }
func BenchmarkSessionBatchUploadFolded(b *testing.B) { benchSessionBatchUpload(b, foldedOpts...) }

func benchSessionBatchUpload(b *testing.B, opts ...Option) {
	srv, prep := prepTest(b, opts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		uploads := make([]SessionUpload, batchBenchSessions)
		for j := range uploads {
			uploads[j] = sampleUpload(prep, fmt.Sprintf("bench-%06d-%03d", i, j), benchChoice(j))
		}
		payload, err := json.Marshal(uploads)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/api/tests/srv-test/sessions:batch", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		b.StartTimer()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.N*batchBenchSessions)/b.Elapsed().Seconds(), "sessions/s")
	benchCheckFolded(b, srv, b.N*batchBenchSessions, len(opts) > 0)
}

// BenchmarkSessionUploadFsync contrasts durable throughput: dir-backed
// SyncAlways stores, singles (one fsync per session) vs one batch (one
// group-commit fsync per hundred). This is the wall-clock case for the
// batched endpoint — the fsync, not the allocator, dominates.
func BenchmarkSessionUploadFsync(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		db, err := store.Open(b.TempDir(), store.WithSyncPolicy(store.SyncAlways))
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		coll := db.Collection(aggregator.ResponsesCollection)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			docs := benchBatchDocs(i)
			b.StartTimer()
			for _, doc := range docs {
				if _, err := coll.InsertUnique(doc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		db, err := store.Open(b.TempDir(), store.WithSyncPolicy(store.SyncAlways))
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		coll := db.Collection(aggregator.ResponsesCollection)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			docs := benchBatchDocs(i)
			b.StartTimer()
			_, errs := coll.InsertUniqueBatch(docs)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// benchBatchDocs builds one iteration's worth of owned documents.
func benchBatchDocs(iter int) []store.Document {
	docs := make([]store.Document, batchBenchSessions)
	for j := range docs {
		id := fmt.Sprintf("srv-test/fs-%06d-%03d", iter, j)
		docs[j] = store.Document{
			store.IDField: id,
			"test_id":     "srv-test",
			"worker_id":   id,
			"session":     `{"worker_id":"` + id + `"}`,
		}
	}
	return docs
}

// BenchmarkLoadInfoCached measures the repeated-loadInfo path: after the
// first assembly the per-request cost is one cache read, not a params_json
// re-parse.
func BenchmarkLoadInfoCached(b *testing.B) {
	srv := benchFixture(b, 0)
	if _, err := srv.loadInfo("srv-test"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.loadInfo("srv-test"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadInfoUncached is the contrast case: every iteration
// invalidates and re-assembles from storage.
func BenchmarkLoadInfoUncached(b *testing.B) {
	srv := benchFixture(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.folds.invalidate("srv-test")
		if _, err := srv.loadInfo("srv-test"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageServe fetches a prepared test's integrated page (left.html)
// from a bare server.New over a real loopback connection, the client
// draining the body into io.Discard. B/op covers both ends of the
// connection; the server's share is what differs between the backends: the
// memory backend writes the store's slice, the directory backend sends the
// file. scripts/bench_delta.sh holds memory under the 32 KB a copy buffer
// would cost.
func BenchmarkPageServe(b *testing.B) {
	for _, backend := range []string{"memory", "dir"} {
		b.Run(backend, func(b *testing.B) {
			blobs := store.NewBlobStore()
			if backend == "dir" {
				var err error
				if blobs, err = store.OpenBlobStore(b.TempDir()); err != nil {
					b.Fatal(err)
				}
			}
			srv, prep := prepTestOn(b, store.OpenMemory(), blobs, "srv-test")
			ts := httptest.NewServer(srv)
			defer ts.Close()
			url := ts.URL + "/api/tests/srv-test/pages/" + prep.RealPages()[0].ID + "/left.html"
			fetch := func() int64 {
				resp, err := http.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || n != resp.ContentLength {
					b.Fatalf("GET = %d, %d of %d bytes, %v", resp.StatusCode, n, resp.ContentLength, err)
				}
				return n
			}
			b.SetBytes(fetch())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch()
			}
		})
	}
}
