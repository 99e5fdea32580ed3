package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/store"
)

// On a dir store each session's payload is a cold value: the store keeps
// where it sits in the WAL and reads it back on demand (store.ErrColdRead).
// These tests hold that no timed path reads one, that the reads which do
// touch disk are the ones DESIGN.md names, and that a bad read is a 500.

// openDir opens a dir store under dir, closed when the test ends.
func openDir(t *testing.T, dir string) *store.DB {
	t.Helper()
	db, err := store.Open(dir, store.WithSyncPolicy(store.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func coldReads(db *store.DB) int64 { return db.DurabilityStats().ColdReads }

// getOK fetches path and fails the test unless it answers 200.
func getOK(t *testing.T, srv *Server, path string) []byte {
	t.Helper()
	rec := doJSON(t, srv, http.MethodGet, path, nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// TestColdValuesCostNoTimedRead drives a crowd shaped like the benchmark's
// through an early-stopping node on a dir store: page fetches, single
// uploads, batches, and raw and quality-controlled polls. Once each test's
// document is cached none of it reads a value back from the WAL: live fold
// state answers every poll. After a reopen the first /results of a test
// replays its sessions, one cold read each, and the next reads none.
func TestColdValuesCostNoTimedRead(t *testing.T) {
	const tests, perTest, batchOf = 3, 60, 10
	dir, blobs := t.TempDir(), store.NewBlobStore()
	db := openDir(t, dir)
	early := WithEarlyStop(EarlyStopConfig{Alpha: 0.05})
	ids := make([]string, tests)
	preps := make([]*aggregator.Prepared, tests)
	for i := range ids {
		ids[i] = fmt.Sprintf("cold-%d", i)
		preps[i] = prepareOn(t, db, blobs, ids[i])
	}
	srv, err := New(db, blobs, early)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		getOK(t, srv, "/api/tests/"+id) // the test-document cache fill
	}

	before := coldReads(db)
	for i, id := range ids {
		var batch []SessionUpload
		for j := 0; j < perTest; j++ {
			up := sampleUpload(preps[i], fmt.Sprintf("w%03d", j), benchChoice(j/2))
			up.TestID = id
			for k := range up.Responses {
				up.Responses[k].TestID = id
			}
			if j%2 == 0 {
				getOK(t, srv, "/api/tests/"+id+"/task")
				getOK(t, srv, "/api/tests/"+id+"/pages/"+preps[i].RealPages()[0].ID+"/left.html")
				payload, _ := json.Marshal(up)
				if rec := doJSON(t, srv, http.MethodPost, "/api/tests/"+id+"/sessions", payload, nil); rec.Code >= 300 {
					t.Fatalf("upload = %d: %s", rec.Code, rec.Body.String())
				}
			} else if batch = append(batch, up); len(batch) == batchOf {
				getOK(t, srv, "/api/tests/"+id+"/results?quality=1")
				if rec := doJSON(t, srv, http.MethodPost, "/api/tests/"+id+"/sessions:batch", marshalBatch(t, batch), nil); rec.Code != http.StatusOK {
					t.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
				}
				batch = batch[:0]
			}
			if j%5 == 0 {
				getOK(t, srv, "/api/tests/"+id+"/results")
				getOK(t, srv, "/api/tests/"+id+"/results?quality=1")
			}
		}
	}
	if n := coldReads(db) - before; n != 0 {
		t.Errorf("the crowd read %d values back from the WAL, want 0", n)
	}
	responses := db.Collection(aggregator.ResponsesCollection)
	stored := responses.Count()
	t.Logf("%d sessions stored", stored)
	if stored == 0 {
		t.Fatal("no session stored")
	}

	db.Close()
	db = openDir(t, dir)
	if srv, err = New(db, blobs, early); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		getOK(t, srv, "/api/tests/"+id)
	}
	before = coldReads(db)
	for _, id := range ids {
		getOK(t, srv, "/api/tests/"+id+"/results")
	}
	if n := coldReads(db) - before; n != int64(stored) {
		t.Errorf("the first polls after a reopen read %d values back, want one per stored session (%d)", n, stored)
	}
	before = coldReads(db)
	for _, id := range ids {
		getOK(t, srv, "/api/tests/"+id+"/results?quality=1")
	}
	if n := coldReads(db) - before; n != 0 {
		t.Errorf("the second polls after a reopen read %d values back, want 0", n)
	}
}

// TestColdSessionFlipAnswers500: one flipped byte under a stored session's
// payload makes the lazy /results and /sessions answer 500 — never other
// bytes — and /sessions answers as before once the byte is restored.
func TestColdSessionFlipAnswers500(t *testing.T) {
	dir := t.TempDir()
	db, blobs := openDir(t, dir), store.NewBlobStore()
	srv, prep := prepTestOn(t, db, blobs, "srv-test")
	batch := make([]SessionUpload, 10)
	for i := range batch {
		batch[i] = sampleUpload(prep, fmt.Sprintf("w%02d", i), benchChoice(i))
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions:batch", marshalBatch(t, batch), nil); rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
	}
	want := getOK(t, srv, "/api/tests/srv-test/sessions")

	path := store.WALPath(dir, aggregator.ResponsesCollection)
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(wal, []byte(`"session":"`)) + 40 // inside the first session's payload
	flip := func() {
		t.Helper()
		wal[at] ^= 1
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip()
	for _, p := range []string{"/results", "/sessions"} {
		if rec := doJSON(t, srv, http.MethodGet, "/api/tests/srv-test"+p, nil, nil); rec.Code != http.StatusInternalServerError {
			t.Errorf("GET %s over a flipped byte = %d, want 500: %s", p, rec.Code, rec.Body.String())
		}
	}
	flip()
	if got := getOK(t, srv, "/api/tests/srv-test/sessions"); !bytes.Equal(got, want) {
		t.Errorf("/sessions after the byte came back:\n%s\nwant\n%s", got, want)
	}
}

// TestDeleteSweepsByID: deleting a test sweeps its documents by the ids the
// index holds, so it reads no value back from the WAL, and still sweeps
// every session.
func TestDeleteSweepsByID(t *testing.T) {
	db, blobs := openDir(t, t.TempDir()), store.NewBlobStore()
	srv, prep := prepTestOn(t, db, blobs, "srv-test")
	const n = 200
	batch := make([]SessionUpload, n)
	for i := range batch {
		batch[i] = sampleUpload(prep, fmt.Sprintf("w%03d", i), benchChoice(i))
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions:batch", marshalBatch(t, batch), nil); rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
	}
	before := coldReads(db)
	var swept struct{ Sessions int }
	if rec := doJSON(t, srv, http.MethodDelete, "/api/tests/srv-test", nil, &swept); rec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", rec.Code, rec.Body.String())
	}
	if swept.Sessions != n {
		t.Errorf("DELETE swept %d sessions, want %d", swept.Sessions, n)
	}
	if got := coldReads(db) - before; got != 0 {
		t.Errorf("DELETE read %d values back from the WAL, want 0", got)
	}
	if left := db.Collection(aggregator.ResponsesCollection).Count(); left != 0 {
		t.Errorf("%d sessions left after DELETE", left)
	}
}
