package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// putCAS is b.PutCAS over raw bytes, for tables that also hold b.Put.
func putCAS(b *BlobStore) func(string, []byte) error {
	return func(key string, data []byte) error { return b.PutCAS(key, NewPayload(data)) }
}

// eachBackend runs fn against a fresh memory-backed and dir-backed store.
func eachBackend(t *testing.T, fn func(t *testing.T, b *BlobStore)) {
	t.Helper()
	t.Run("memory", func(t *testing.T) { fn(t, NewBlobStore()) })
	t.Run("dir", func(t *testing.T) {
		b, err := OpenBlobStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, b)
	})
}

func TestPutCASDedup(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		payload := bytes.Repeat([]byte("kaleidoscope"), 100)
		keys := []string{"t/p1/left.html", "t/p1/right.html", "t/p2/left.html"}
		for _, key := range keys {
			if err := b.PutCAS(key, NewPayload(payload)); err != nil {
				t.Fatalf("PutCAS(%s): %v", key, err)
			}
		}
		for _, key := range keys {
			got, err := b.Get(key)
			if err != nil {
				t.Fatalf("Get(%s): %v", key, err)
			}
			if !bytes.Equal(got, payload) {
				t.Errorf("Get(%s) = %d bytes, want %d", key, len(got), len(payload))
			}
		}
		stats := b.Stats()
		if stats.DedupHits != 2 || stats.UniqueBlobs != 1 {
			t.Errorf("stats = %+v, want 2 dedup hits, 1 unique blob", stats)
		}
		if want := int64(2 * len(payload)); stats.BytesSaved != want {
			t.Errorf("bytes saved = %d, want %d", stats.BytesSaved, want)
		}
		// The CAS area is internal: never listed.
		listed, err := b.List("")
		if err != nil {
			t.Fatal(err)
		}
		if len(listed) != len(keys) {
			t.Errorf("List = %v, want the %d logical keys only", listed, len(keys))
		}
	})
}

func TestPutCASDistinctPayloads(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		for i := 0; i < 4; i++ {
			if err := b.PutCAS(fmt.Sprintf("k%d", i), NewPayload([]byte{byte(i)})); err != nil {
				t.Fatal(err)
			}
		}
		stats := b.Stats()
		if stats.DedupHits != 0 || stats.UniqueBlobs != 4 {
			t.Errorf("stats = %+v, want 0 hits, 4 unique", stats)
		}
	})
}

// TestPayloadStoredOnce: one payload stored under several keys is one
// stored copy, served under its digest from every key, and the zero Payload
// is the empty blob.
func TestPayloadStoredOnce(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		p := NewPayload([]byte("page bytes"))
		for _, key := range []string{"t/a/left.html", "t/b/right.html"} {
			if err := b.PutCAS(key, p); err != nil {
				t.Fatal(err)
			}
			if etag, got := readView(t, b, key); string(got) != "page bytes" || etag != etagOf(got) {
				t.Errorf("%s = %q under %s, want the payload under its digest", key, got, etag)
			}
		}
		if stats := b.Stats(); stats.UniqueBlobs != 1 || stats.DedupHits != 1 {
			t.Errorf("stats = %+v, want 1 unique payload and 1 dedup hit", stats)
		}
		if err := b.PutCAS("t/empty", Payload{}); err != nil {
			t.Fatal(err)
		}
		if etag, got := readView(t, b, "t/empty"); len(got) != 0 || etag != etagOf(nil) {
			t.Errorf("zero Payload stored as %q under %s, want the empty blob", got, etag)
		}
	})
}

// TestPutOverCASLinkPreservesSharedPayload guards the hard-link hazard: a
// Put over a key that shares a CAS payload must not mutate the bytes other
// keys read.
func TestPutOverCASLinkPreservesSharedPayload(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		original := []byte("shared original payload")
		if err := b.PutCAS("a", NewPayload(original)); err != nil {
			t.Fatal(err)
		}
		if err := b.PutCAS("b", NewPayload(original)); err != nil {
			t.Fatal(err)
		}
		if err := b.Put("a", []byte("overwritten!")); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get("b")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, original) {
			t.Fatalf("Get(b) = %q after Put(a); shared payload corrupted", got)
		}
	})
}

// PutCAS over an existing key must replace it and keep refcounts right.
func TestPutCASOverwrite(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		if err := b.Put("k", []byte("plain")); err != nil {
			t.Fatal(err)
		}
		if err := b.PutCAS("k", NewPayload([]byte("v1"))); err != nil {
			t.Fatal(err)
		}
		if err := b.PutCAS("k", NewPayload([]byte("v2"))); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "v2" {
			t.Errorf("Get = %q, want v2", got)
		}
		// v1's payload lost its only reference.
		if stats := b.Stats(); stats.UniqueBlobs != 1 {
			t.Errorf("unique blobs = %d, want 1", stats.UniqueBlobs)
		}
	})
}

func TestDeleteReleasesCAS(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		payload := []byte("payload")
		if err := b.PutCAS("x/a", NewPayload(payload)); err != nil {
			t.Fatal(err)
		}
		if err := b.PutCAS("x/b", NewPayload(payload)); err != nil {
			t.Fatal(err)
		}
		if n, err := b.DeletePrefix("x/a"); err != nil || n != 1 {
			t.Fatalf("DeletePrefix(x/a) = %d, %v", n, err)
		}
		if _, err := b.Get("x/a"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get deleted key err = %v", err)
		}
		if got, err := b.Get("x/b"); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("Get(x/b) = %q, %v", got, err)
		}
		if stats := b.Stats(); stats.UniqueBlobs != 1 {
			t.Errorf("unique blobs = %d, want 1", stats.UniqueBlobs)
		}
		if n, err := b.DeletePrefix("x/b"); err != nil || n != 1 {
			t.Fatalf("DeletePrefix(x/b) = %d, %v", n, err)
		}
		if stats := b.Stats(); stats.UniqueBlobs != 0 {
			t.Errorf("unique blobs after full delete = %d, want 0", stats.UniqueBlobs)
		}
		if n, err := b.DeletePrefix("x/b"); err != nil || n != 0 {
			t.Errorf("double delete = %d, %v; want 0, nil", n, err)
		}
	})
}

func TestDeleteReleasesCASPrunesDiskPayload(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutCAS("only", NewPayload([]byte("data"))); err != nil {
		t.Fatal(err)
	}
	if n, err := b.DeletePrefix("only"); err != nil || n != 1 {
		t.Fatalf("DeletePrefix(only) = %d, %v", n, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, casDir))
	if err == nil && len(entries) > 0 {
		t.Errorf("cas dir still holds %d unreferenced payloads", len(entries))
	}
}

func TestDeletePrefix(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		for _, key := range []string{"t1/p/a", "t1/p/b", "t2/p/a"} {
			if err := b.PutCAS(key, NewPayload([]byte(key))); err != nil {
				t.Fatal(err)
			}
		}
		n, err := b.DeletePrefix("t1/")
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Errorf("deleted %d, want 2", n)
		}
		// Idempotent: nothing left under the prefix.
		if n, err := b.DeletePrefix("t1/"); err != nil || n != 0 {
			t.Errorf("second DeletePrefix = %d, %v", n, err)
		}
		if got, err := b.Get("t2/p/a"); err != nil || string(got) != "t2/p/a" {
			t.Errorf("unrelated key damaged: %q, %v", got, err)
		}
	})
}

// TestDeletePrefixSweepsCrossProcessOrphans reopens a populated directory
// store in a fresh BlobStore — the server process deleting a test the
// prepare CLI stored. Refcounts are per-process, so only the on-disk link
// count can prove the CAS payloads died: after deleting every test that
// shares them, the .cas area and the tests' directories must be gone,
// while payloads still hard-linked by a surviving test must remain.
func TestDeletePrefixSweepsCrossProcessOrphans(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// t1 and t2 share a payload; t3 has its own.
	shared, own := []byte("shared payload"), []byte("private payload")
	for _, k := range []string{"t1/p/index.html", "t2/p/index.html"} {
		if err := writer.PutCAS(k, NewPayload(shared)); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.PutCAS("t3/p/index.html", NewPayload(own)); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same directory knows none of the
	// refcounts.
	server, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := server.DeletePrefix("t1/"); err != nil || n != 1 {
		t.Fatalf("DeletePrefix t1 = %d, %v", n, err)
	}
	// t2 still links the shared payload: it must survive t1's deletion.
	if got, err := server.Get("t2/p/index.html"); err != nil || string(got) != string(shared) {
		t.Fatalf("shared payload lost with a survivor attached: %q, %v", got, err)
	}
	if keys, err := server.List("t1/"); err != nil || len(keys) != 0 {
		t.Errorf("t1's keys survived its deletion: %v, %v", keys, err)
	}
	if n, err := server.DeletePrefix("t2/"); err != nil || n != 1 {
		t.Fatalf("DeletePrefix t2 = %d, %v", n, err)
	}
	if n, err := server.DeletePrefix("t3/"); err != nil || n != 1 {
		t.Fatalf("DeletePrefix t3 = %d, %v", n, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, casDir))
	if err == nil && len(entries) > 0 {
		t.Errorf("cas area still holds %d orphaned payloads after every referencing test was deleted", len(entries))
	}
}

// TestBlobStoreConcurrentHammer drives Put, PutCAS, Get, and List from
// parallel goroutines on both backends. Run under -race via make check,
// this is the store's concurrency contract test.
func TestBlobStoreConcurrentHammer(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		const (
			goroutines = 8
			rounds     = 40
		)
		shared := make([][]byte, 4)
		for i := range shared {
			shared[i] = bytes.Repeat([]byte{byte('A' + i)}, 256+i)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					unique := fmt.Sprintf("own/%d/%d", g, r)
					cas := fmt.Sprintf("cas/%d/%d", g, r)
					payload := shared[(g+r)%len(shared)]
					if err := b.Put(unique, []byte(unique)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					if err := b.PutCAS(cas, NewPayload(payload)); err != nil {
						t.Errorf("PutCAS: %v", err)
						return
					}
					if got, err := b.Get(unique); err != nil || string(got) != unique {
						t.Errorf("Get(%s) = %q, %v", unique, got, err)
						return
					}
					if got, err := b.Get(cas); err != nil || !bytes.Equal(got, payload) {
						t.Errorf("Get(%s): %v", cas, err)
						return
					}
					if _, err := b.List(fmt.Sprintf("own/%d/", g)); err != nil {
						t.Errorf("List: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()

		// Post-hammer consistency: every key reads back, dedup collapsed the
		// shared payloads to len(shared) live CAS entries beside one per
		// Put key.
		keys, err := b.List("")
		if err != nil {
			t.Fatal(err)
		}
		if want := goroutines * rounds * 2; len(keys) != want {
			t.Errorf("keys = %d, want %d", len(keys), want)
		}
		stats := b.Stats()
		if want := int64(len(shared) + goroutines*rounds); stats.UniqueBlobs != want {
			t.Errorf("unique blobs = %d, want %d", stats.UniqueBlobs, want)
		}
		if want := int64(goroutines*rounds) - int64(len(shared)); stats.DedupHits != want {
			t.Errorf("dedup hits = %d, want %d", stats.DedupHits, want)
		}
	})
}

// TestCleanKeyTable pins cleanKey's traversal rejection and normalization.
func TestCleanKeyTable(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "a/b/c", want: "a/b/c"},
		{in: "/leading/slash", want: "leading/slash"},
		{in: "a//b", want: "a/b"},
		{in: "a/./b", want: "a/b"},
		{in: "a/x/../b", want: "a/b"},
		{in: "trailing/", want: "trailing"},
		{in: "", wantErr: true},
		{in: "/", wantErr: true},
		{in: ".", wantErr: true},
		{in: "..", wantErr: true},
		{in: "../escape", wantErr: true},
		{in: "a/../..", wantErr: true},
		{in: "a/../../b", wantErr: true},
		{in: "..//..//etc/passwd", wantErr: true},
		// The CAS area is reserved for the store itself.
		{in: ".cas", wantErr: true},
		{in: ".cas/deadbeef", wantErr: true},
		{in: "/.cas/deadbeef", wantErr: true},
		{in: "x/../.cas/deadbeef", wantErr: true},
		// ".cas" as a non-leading segment is a normal key.
		{in: "t/.cas/file", want: "t/.cas/file"},
	}
	for _, tc := range cases {
		got, err := cleanKey(tc.in)
		if tc.wantErr {
			if !errors.Is(err, ErrInvalidKey) {
				t.Errorf("cleanKey(%q) err = %v, want ErrInvalidKey", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("cleanKey(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("cleanKey(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
