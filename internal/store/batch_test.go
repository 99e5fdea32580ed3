package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// batchDocs builds n owned documents with ids "t/w<i>".
func batchDocs(n int) []Document {
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = Document{
			IDField:   fmt.Sprintf("t/w%03d", i),
			"test_id": "t",
			"session": fmt.Sprintf(`{"worker":"w%03d"}`, i),
		}
	}
	return docs
}

// The batch insert must leave the store — live documents AND the on-disk
// WAL — byte-identical to the same documents inserted one by one.
func TestInsertUniqueBatchEquivalentToSingles(t *testing.T) {
	dirSingle, dirBatch := t.TempDir(), t.TempDir()
	single, err := Open(dirSingle, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Open(dirBatch, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range batchDocs(20) {
		if _, err := single.Collection("responses").InsertUnique(doc); err != nil {
			t.Fatal(err)
		}
	}
	ids, errs := batch.Collection("responses").InsertUniqueBatch(batchDocs(20))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch doc %d: %v", i, err)
		}
		if ids[i] == "" {
			t.Fatalf("batch doc %d: empty id", i)
		}
	}
	if got, want := batch.Collection("responses").Count(), single.Collection("responses").Count(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	for _, doc := range single.Collection("responses").Find(nil) {
		got, err := batch.Collection("responses").Get(doc.ID())
		if err != nil {
			t.Fatalf("batch missing %s: %v", doc.ID(), err)
		}
		if fmt.Sprint(got) != fmt.Sprint(doc) {
			t.Errorf("doc %s differs: %v vs %v", doc.ID(), got, doc)
		}
	}
	single.Close()
	batch.Close()
	walSingle, err := os.ReadFile(filepath.Join(dirSingle, "responses.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	walBatch, err := os.ReadFile(filepath.Join(dirBatch, "responses.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(walSingle) != string(walBatch) {
		t.Error("batch WAL bytes differ from N single inserts")
	}

	// And the batch WAL replays.
	re, err := Open(dirBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Collection("responses").Count(); got != 20 {
		t.Errorf("replayed count = %d, want 20", got)
	}
}

// Group commit: under SyncAlways a batch of N costs one fsync, not N.
func TestInsertUniqueBatchGroupCommitFsync(t *testing.T) {
	db, err := Open(t.TempDir(), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, errs := db.Collection("responses").InsertUniqueBatch(batchDocs(100))
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	stats := db.DurabilityStats()
	if stats.Fsyncs != 1 {
		t.Errorf("fsyncs = %d, want 1 for a 100-doc batch under SyncAlways", stats.Fsyncs)
	}
	if stats.WALAppends != 100 {
		t.Errorf("wal appends = %d, want 100", stats.WALAppends)
	}
}

// Duplicates — against stored documents and earlier in the same batch —
// are rejected per element without poisoning the rest.
func TestInsertUniqueBatchDuplicates(t *testing.T) {
	db := OpenMemory()
	coll := db.Collection("responses")
	if _, err := coll.InsertUnique(Document{IDField: "t/w000", "test_id": "t"}); err != nil {
		t.Fatal(err)
	}
	docs := []Document{
		{IDField: "t/w000", "test_id": "t"}, // dup vs stored
		{IDField: "t/wNEW", "test_id": "t"},
		{IDField: "t/wNEW", "test_id": "t"}, // dup vs earlier batch member
		{IDField: "t/wTWO", "test_id": "t"},
	}
	ids, errs := coll.InsertUniqueBatch(docs)
	if !errors.Is(errs[0], ErrDuplicateID) || !errors.Is(errs[2], ErrDuplicateID) {
		t.Errorf("dup errors = %v / %v, want ErrDuplicateID", errs[0], errs[2])
	}
	if errs[1] != nil || errs[3] != nil {
		t.Errorf("fresh docs rejected: %v / %v", errs[1], errs[3])
	}
	if ids[1] != "t/wNEW" || ids[3] != "t/wTWO" {
		t.Errorf("ids = %v", ids)
	}
	if got := coll.Count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
}

// Generated ids keep flowing from the same sequence as single inserts.
func TestInsertUniqueBatchGeneratedIDs(t *testing.T) {
	db := OpenMemory()
	coll := db.Collection("docs")
	if _, err := coll.Insert(Document{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	ids, errs := coll.InsertUniqueBatch([]Document{{"k": "a"}, {"k": "b"}})
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if ids[0] != "doc-2" || ids[1] != "doc-3" {
		t.Errorf("generated ids = %v, want [doc-2 doc-3]", ids)
	}
}

// A WAL write failure mid-batch rejects every accepted document with the
// same error and stores none of them; the store remains usable and
// reopenable afterwards.
func TestInsertUniqueBatchWALFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	db, err := Open(dir, WithFileSystem(ffs), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	coll := db.Collection("responses")
	ffs.FailAppendsAfter(0, ErrNoSpace, false)
	_, errs := coll.InsertUniqueBatch(batchDocs(5))
	for i, err := range errs {
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("doc %d err = %v, want ENOSPC", i, err)
		}
	}
	if got := coll.Count(); got != 0 {
		t.Errorf("count after failed batch = %d, want 0", got)
	}
	ffs.Reset()
	_, errs = coll.InsertUniqueBatch(batchDocs(5))
	for i, err := range errs {
		if err != nil {
			t.Errorf("doc %d after heal: %v", i, err)
		}
	}
	db.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Collection("responses").Count(); got != 5 {
		t.Errorf("replayed count = %d, want 5", got)
	}
}

// Change hooks fire once per stored document, in batch order, after the
// mutation committed; indexes answer immediately.
func TestInsertUniqueBatchNotifyAndIndexes(t *testing.T) {
	db := OpenMemory()
	coll := db.Collection("responses")
	coll.EnsureIndex("test_id")
	var events []string
	coll.OnChange(func(op, id string, _ any) { events = append(events, op+":"+id) })
	_, errs := coll.InsertUniqueBatch(batchDocs(3))
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"put:t/w000", "put:t/w001", "put:t/w002"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("events = %v, want %v", events, want)
	}
	if got := coll.CountEq("test_id", "t"); got != 3 {
		t.Errorf("indexed count = %d, want 3", got)
	}
}

func TestInsertUniqueBatchClosed(t *testing.T) {
	db := OpenMemory()
	db.Close()
	_, errs := db.Collection("responses").InsertUniqueBatch(batchDocs(2))
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("doc %d err = %v, want ErrClosed", i, err)
		}
	}
}
