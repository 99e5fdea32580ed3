package store

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

func TestEnsureIndexFindEq(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("r")
	for i := 0; i < 100; i++ {
		if _, err := c.Insert(Document{"test_id": "t" + strconv.Itoa(i%5), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	// Index declared after the fact is built from existing docs.
	c.EnsureIndex("test_id")
	scanned := c.Find(func(d Document) bool { return d["test_id"] == "t3" })
	indexed := c.FindEq("test_id", "t3")
	if len(indexed) != 20 || !reflect.DeepEqual(scanned, indexed) {
		t.Fatalf("indexed FindEq = %d docs, scan = %d", len(indexed), len(scanned))
	}
	if got := c.CountEq("test_id", "t3"); got != 20 {
		t.Errorf("CountEq = %d, want 20", got)
	}
	// The indexed lookups above must not have scanned.
	stats := c.Stats()
	if stats.IndexHits < 2 {
		t.Errorf("index hits = %d, want >= 2", stats.IndexHits)
	}
	if stats.Indexes != 1 || stats.Docs != 100 {
		t.Errorf("stats = %+v", stats)
	}
	// Unindexed field still works (scan fallback).
	if got := len(c.FindEq("n", 7)); got != 1 {
		t.Errorf("unindexed FindEq = %d, want 1", got)
	}
	// Declaring twice is a no-op.
	c.EnsureIndex("test_id")
	if got := len(c.Indexes()); got != 1 {
		t.Errorf("indexes = %d, want 1", got)
	}
}

func TestIndexMaintainedOnMutations(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("r")
	c.EnsureIndex("test_id")
	id, err := c.Insert(Document{"test_id": "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CountEq("test_id", "a"); got != 1 {
		t.Fatalf("after insert: CountEq(a) = %d", got)
	}
	// Upsert over the same id moves the doc between index buckets.
	if _, err := c.Insert(Document{IDField: id, "test_id": "b"}); err != nil {
		t.Fatal(err)
	}
	if c.CountEq("test_id", "a") != 0 || c.CountEq("test_id", "b") != 1 {
		t.Fatalf("after first upsert: a=%d b=%d", c.CountEq("test_id", "a"), c.CountEq("test_id", "b"))
	}
	// A second upsert moves it again.
	if _, err := c.Insert(Document{IDField: id, "test_id": "c"}); err != nil {
		t.Fatal(err)
	}
	if c.CountEq("test_id", "b") != 0 || c.CountEq("test_id", "c") != 1 {
		t.Fatalf("after upsert: b=%d c=%d", c.CountEq("test_id", "b"), c.CountEq("test_id", "c"))
	}
	// Delete removes it.
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := c.CountEq("test_id", "c"); got != 0 {
		t.Fatalf("after delete: CountEq(c) = %d", got)
	}
	if got := len(c.FindEq("test_id", "c")); got != 0 {
		t.Fatalf("after delete: FindEq(c) = %d", got)
	}
}

func TestIndexRebuiltOnWALReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("r")
	for i := 0; i < 10; i++ {
		if _, err := c.Insert(Document{"test_id": "t" + strconv.Itoa(i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := db2.Collection("r")
	c2.EnsureIndex("test_id")
	if got := c2.CountEq("test_id", "t1"); got != 5 {
		t.Errorf("replayed CountEq = %d, want 5", got)
	}
}

func TestInsertUnique(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("r")
	if _, err := c.InsertUnique(Document{IDField: "x", "v": 1}); err != nil {
		t.Fatal(err)
	}
	_, err := c.InsertUnique(Document{IDField: "x", "v": 2})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate err = %v, want ErrDuplicateID", err)
	}
	// The original document is untouched.
	doc, err := c.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := doc.Int("v"); n != 1 {
		t.Errorf("v = %v, want 1", doc["v"])
	}
	// Concurrent duplicates: exactly one wins.
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.InsertUnique(Document{IDField: "race", "i": i})
		}(i)
	}
	wg.Wait()
	wins := 0
	for _, err := range errs {
		if err == nil {
			wins++
		} else if !errors.Is(err, ErrDuplicateID) {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if wins != 1 {
		t.Errorf("winners = %d, want 1", wins)
	}
}

func TestDocumentInt(t *testing.T) {
	d := Document{
		"f":   float64(7),
		"i":   3,
		"i64": int64(9),
		"s":   "nope",
	}
	for key, want := range map[string]int{"f": 7, "i": 3, "i64": 9} {
		if n, ok := d.Int(key); !ok || n != want {
			t.Errorf("Int(%s) = %d,%v, want %d", key, n, ok, want)
		}
	}
	if _, ok := d.Int("s"); ok {
		t.Error("string should not parse as int")
	}
	if _, ok := d.Int("missing"); ok {
		t.Error("missing key should not parse as int")
	}
}

// TestLiveEqualsReplayed is the numeric-drift regression: a freshly written
// document (a first insert and an upsert) must be byte-for-byte the document a
// WAL reload produces.
func TestLiveEqualsReplayed(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("tests")
	id, err := c.Insert(Document{"participants": 25, "nested": map[string]any{"n": int64(4)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Document{IDField: id, "participants": 25, "nested": map[string]any{"n": int64(4)}, "page_count": 3}); err != nil {
		t.Fatal(err)
	}
	live, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := live.Int("participants"); !ok || n != 25 {
		t.Fatalf("live participants = %v", live["participants"])
	}
	// Both the live and mutated fields must already be float64 — the shape
	// the server's type asserts see after a WAL reload.
	if _, ok := live["participants"].(float64); !ok {
		t.Errorf("live participants is %T, want float64", live["participants"])
	}
	if _, ok := live["page_count"].(float64); !ok {
		t.Errorf("live page_count is %T, want float64", live["page_count"])
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := db2.Collection("tests").Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("live != replayed:\nlive     = %#v\nreplayed = %#v", live, replayed)
	}
}

func TestOnChange(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("r")
	var mu sync.Mutex
	var events []string
	c.OnChange(func(op, id string, _ any) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, op+":"+id)
		// Callbacks run outside the collection lock: calling back in must
		// not deadlock.
		_ = c.Count()
	})
	id, _ := c.Insert(Document{IDField: "a"})
	_, _ = c.Insert(Document{IDField: id, "x": 1})
	_ = c.Delete(id)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"put:a", "put:a", "del:a"}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events = %v, want %v", events, want)
	}
}

// A note attached through InsertUniqueNoted reaches OnChange subscribers
// with its document's event and nobody else: rejected documents notify
// nothing, and other mutations carry nil.
func TestInsertUniqueNotedDeliversNotes(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("r")
	var noted []string
	c.OnChange(func(op, id string, note any) {
		noted = append(noted, fmt.Sprintf("%s:%s:%v", op, id, note))
	})

	if _, err := c.Insert(Document{IDField: "dup"}); err != nil {
		t.Fatal(err)
	}
	_, errs := c.InsertUniqueNoted(
		[]Document{{IDField: "a"}, {IDField: "dup"}, {IDField: "b"}, {IDField: "c"}},
		[]any{"note-a", "note-dup", "note-b"}, // shorter than docs: c has none
	)
	if errs[0] != nil || !errors.Is(errs[1], ErrDuplicateID) || errs[2] != nil || errs[3] != nil {
		t.Fatalf("errs = %v", errs)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	want := []string{"put:dup:<nil>", "put:a:note-a", "put:b:note-b", "put:c:<nil>", "del:a:<nil>"}
	if !reflect.DeepEqual(noted, want) {
		t.Errorf("noted events = %v, want %v", noted, want)
	}
}
