package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestInsertAndGet(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("tests")
	id, err := c.Insert(Document{"test_id": "t1", "participants": 100})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id == "" {
		t.Fatal("empty generated id")
	}
	doc, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if doc["test_id"] != "t1" {
		t.Errorf("doc = %v", doc)
	}
	if doc.ID() != id {
		t.Errorf("ID() = %q, want %q", doc.ID(), id)
	}
}

func TestGetNotFound(t *testing.T) {
	db := OpenMemory()
	if _, err := db.Collection("x").Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestInsertWithExplicitID(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("c")
	id, err := c.Insert(Document{IDField: "custom", "v": 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != "custom" {
		t.Errorf("id = %q", id)
	}
	// Upsert semantics.
	if _, err := c.Insert(Document{IDField: "custom", "v": 2}); err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get("custom")
	if err != nil {
		t.Fatal(err)
	}
	if doc["v"] != float64(2) {
		t.Errorf("v = %v (%T), want 2", doc["v"], doc["v"])
	}
	if c.Count() != 1 {
		t.Errorf("count = %d, want 1", c.Count())
	}
}

func TestDocumentIsolation(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("c")
	orig := Document{"list": []any{"a"}}
	id, err := c.Insert(orig)
	if err != nil {
		t.Fatal(err)
	}
	orig["mutated"] = true // must not leak into the store
	doc, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["mutated"]; ok {
		t.Error("insert should deep-copy")
	}
	doc["also"] = true // must not leak back
	doc2, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc2["also"]; ok {
		t.Error("get should return a copy")
	}
}

func TestFindAndFindEq(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("responses")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(Document{"worker": fmt.Sprintf("w%d", i%2), "score": i}); err != nil {
			t.Fatal(err)
		}
	}
	all := c.Find(nil)
	if len(all) != 5 {
		t.Fatalf("Find(nil) = %d", len(all))
	}
	// Sorted by id.
	for i := 1; i < len(all); i++ {
		if all[i].ID() < all[i-1].ID() {
			t.Fatal("results not sorted")
		}
	}
	w0 := c.FindEq("worker", "w0")
	if len(w0) != 3 {
		t.Errorf("FindEq(worker, w0) = %d, want 3", len(w0))
	}
	// Numeric normalization: stored int comes back float64, query by int.
	byScore := c.FindEq("score", 2)
	if len(byScore) != 1 {
		t.Errorf("FindEq(score, 2) = %d, want 1", len(byScore))
	}
	high := c.Find(func(d Document) bool { return d["score"].(float64) >= 3 })
	if len(high) != 2 {
		t.Errorf("filtered = %d, want 2", len(high))
	}
}

func TestDelete(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("c")
	id, err := c.Insert(Document{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(id); !errors.Is(err, ErrNotFound) {
		t.Error("deleted doc should be gone")
	}
	if err := c.Delete(id); err != nil {
		t.Error("double delete should be a no-op")
	}
}

func TestCollectionNames(t *testing.T) {
	db := OpenMemory()
	db.Collection("b")
	db.Collection("a")
	names := db.CollectionNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c := db.Collection("tests")
	id1, err := c.Insert(Document{"name": "first"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.Insert(Document{"name": "second"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Document{IDField: id1, "name": "first-updated"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id2); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Reopen and verify state.
	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	c2 := db2.Collection("tests")
	if c2.Count() != 1 {
		t.Fatalf("count after replay = %d, want 1", c2.Count())
	}
	doc, err := c2.Get(id1)
	if err != nil {
		t.Fatal(err)
	}
	if doc["name"] != "first-updated" {
		t.Errorf("name = %v", doc["name"])
	}
	// Sequence continues: new ids don't collide.
	id3, err := c2.Insert(Document{"name": "third"})
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 || id3 == id2 {
		t.Errorf("id collision after replay: %s", id3)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir should fail")
	}
}

func TestConcurrentInserts(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("c")
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Insert(Document{"i": i}); err != nil {
				t.Errorf("Insert: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if c.Count() != n {
		t.Errorf("count = %d, want %d", c.Count(), n)
	}
	// All ids distinct (guaranteed by Count, but verify Find too).
	if len(c.Find(nil)) != n {
		t.Error("Find should see all docs")
	}
}

func TestBlobStoreMemory(t *testing.T) {
	b := NewBlobStore()
	if err := b.Put("t1/page/index.html", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := b.Get("t1/page/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Errorf("data = %q", data)
	}
	if _, err := b.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	keys, err := b.List("t1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "t1/page/index.html" {
		t.Errorf("keys = %v", keys)
	}
}

func TestBlobStoreKeyValidation(t *testing.T) {
	b := NewBlobStore()
	for _, key := range []string{"", "..", "../escape", "a/../../b"} {
		if err := b.Put(key, []byte("x")); !errors.Is(err, ErrInvalidKey) {
			t.Errorf("Put(%q) err = %v, want ErrInvalidKey", key, err)
		}
	}
	// Leading slash is tolerated (normalized).
	if err := b.Put("/ok/file", []byte("x")); err != nil {
		t.Errorf("Put(/ok/file) = %v", err)
	}
	if _, err := b.Get("ok/file"); err != nil {
		t.Errorf("normalized get: %v", err)
	}
}

func TestBlobStoreDisk(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("test/a/b.txt", []byte("disk")); err != nil {
		t.Fatal(err)
	}
	data, err := b.Get("test/a/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "disk" {
		t.Errorf("data = %q", data)
	}
	// A fresh handle over the same dir sees the data.
	b2, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Get("test/a/b.txt"); err != nil {
		t.Errorf("fresh handle: %v", err)
	}
	keys, err := b2.List("test/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Errorf("keys = %v", keys)
	}
	if _, err := OpenBlobStore(""); err == nil {
		t.Error("empty dir should fail")
	}
}

// TestPageFolderRoundTrip: a page's files stored under testID/pageName/
// list and read back whole under that folder, a neighbouring page's files
// apart.
func TestPageFolderRoundTrip(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		files := map[string][]byte{
			"index.html":     []byte("<html><link rel=stylesheet href=css/site.css></html>"),
			"css/site.css":   []byte("body { font-size: 12pt }"),
			"img/figure.png": bytes.Repeat([]byte{0x89, 'P'}, 300),
		}
		for name, data := range files {
			if err := b.PutCAS("test-1/wiki-12pt/"+name, NewPayload(data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.PutCAS("test-1/wiki-14pt/index.html", NewPayload([]byte("<html></html>"))); err != nil {
			t.Fatal(err)
		}
		keys, err := b.List("test-1/wiki-12pt/")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(files) {
			t.Fatalf("List = %v, want the page's %d files", keys, len(files))
		}
		for _, key := range keys {
			got, err := b.Get(key)
			if want := files[strings.TrimPrefix(key, "test-1/wiki-12pt/")]; err != nil || !bytes.Equal(got, want) {
				t.Errorf("Get(%s) = %q, %v; want %q", key, got, err, want)
			}
		}
	})
}

func TestLoadCorruptWAL(t *testing.T) {
	dir := t.TempDir()
	// A valid record followed by trailing garbage: the torn-tail case. The
	// store opens, keeps the acknowledged record, and truncates the tail.
	content := `{"op":"put","id":"doc-1","doc":{"_id":"doc-1","v":1}}
this is not json
`
	if err := os.WriteFile(filepath.Join(dir, "tests.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupt tail must not prevent open: %v", err)
	}
	defer db.Close()
	if got := db.Collection("tests").Count(); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	if s := db.DurabilityStats(); s.RecoveredTails != 1 {
		t.Errorf("stats = %+v, want 1 recovered tail", s)
	}
}

func TestLoadUnknownWALOp(t *testing.T) {
	dir := t.TempDir()
	content := `{"op":"explode","id":"doc-1"}
`
	if err := os.WriteFile(filepath.Join(dir, "tests.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("unknown op must be quarantined, not fatal: %v", err)
	}
	defer db.Close()
	if got := db.Collection("tests").Count(); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
	if s := db.DurabilityStats(); s.QuarantinedRecords != 1 {
		t.Errorf("stats = %+v, want 1 quarantined record", s)
	}
	if _, err := os.Stat(filepath.Join(dir, "tests.jsonl"+corruptSuffix)); err != nil {
		t.Errorf("missing quarantine sidecar: %v", err)
	}
}

func TestLoadWALSkipsBlankLinesAndNonJSONLFiles(t *testing.T) {
	dir := t.TempDir()
	content := `{"op":"put","id":"doc-1","doc":{"_id":"doc-1"}}

{"op":"del","id":"doc-1"}
`
	if err := os.WriteFile(filepath.Join(dir, "c.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignore me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if db.Collection("c").Count() != 0 {
		t.Error("put+del should leave empty collection")
	}
	names := db.CollectionNames()
	if len(names) != 1 || names[0] != "c" {
		t.Errorf("collections = %v", names)
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("mixed")
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := c.Insert(Document{"i": i})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := c.Insert(Document{IDField: id, "i": i, "u": true}); err != nil {
				t.Errorf("upsert: %v", err)
			}
			_ = c.Find(func(d Document) bool { return true })
			if i%2 == 0 {
				if err := c.Delete(id); err != nil {
					t.Errorf("delete: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Count() != 10 {
		t.Errorf("count = %d, want 10", c.Count())
	}
}
