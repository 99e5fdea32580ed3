package store

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

var coldSeed = flag.Int64("cold.seed", 0, "replay one seed of TestColdValuesModel")

// coldString returns a string of exactly n bytes dense in what a JSON literal
// escapes or spells in more than one byte: quotes, backslashes, control
// bytes, <>&, U+2028, and two-, three- and four-byte runes.
func coldString(r *rand.Rand, n int) string {
	pieces := []string{"a", "Z", "0", " ", `"`, `\`, "\n", "\t", "\x01", "<", "&", "é", "日", "😀", " "}
	var b strings.Builder
	for b.Len() < n {
		p := pieces[r.Intn(len(pieces))]
		if b.Len()+len(p) > n {
			p = "x"
		}
		b.WriteString(p)
	}
	return b.String()
}

// coldValue draws a top-level value around the cold threshold: 0, 255, 256
// and 4 KiB bytes, now and then a long one that is not valid UTF-8, a number
// or a nested object holding a long string.
func coldValue(r *rand.Rand) any {
	switch k := r.Intn(10); {
	case k < 6:
		return coldString(r, []int{0, coldMin - 1, coldMin, 4096}[r.Intn(4)])
	case k == 6:
		return coldString(r, coldMin) + "\xff"
	case k == 7:
		return float64(r.Intn(1000))
	default:
		return map[string]any{"inner": coldString(r, 300), "n": 1.5}
	}
}

func coldDoc(r *rand.Rand, id string) Document {
	doc := Document{IDField: id, "test_id": []string{"t1", "t2", coldString(r, 300)}[r.Intn(3)]}
	for _, k := range []string{"session", "params_json", "meta"} {
		if r.Intn(4) > 0 {
			doc[k] = coldValue(r)
		}
	}
	return doc
}

// checkColdness holds the rule for which values go cold: every top-level
// string value of at least coldMin bytes that is valid UTF-8 and is no index
// key is cold, and no other value is. One exception: a batch stores an
// invalid string as it is and the WAL spells it with U+FFFD, so the replayed
// record is not the line the encoder writes for it, and stays hot.
func checkColdness(c *Collection) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for id, s := range c.docs {
		replacement := slices.ContainsFunc(s.vals, func(v any) bool {
			str, ok := v.(string)
			return ok && strings.ContainsRune(str, utf8.RuneError)
		})
		for i, k := range s.shape.keys {
			_, indexed := c.indexes[k]
			switch v := s.vals[i].(type) {
			case cold:
				if indexed {
					return fmt.Errorf("%s: indexed field %s is cold", id, k)
				}
			case string:
				if len(v) >= coldMin && utf8.ValidString(v) && !indexed && !replacement {
					return fmt.Errorf("%s: field %s (%d bytes) is hot", id, k, len(v))
				}
			}
		}
	}
	return nil
}

// replayFile decodes a collection's whole WAL as replay builds documents:
// the last put of each id not deleted after it, sorted by id.
func replayFile(t *testing.T, path string) []Document {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	docs := map[string]Document{}
	for _, rec := range scanWAL(data).records {
		if rec.Op == "put" {
			docs[rec.ID] = rec.Doc
		} else {
			delete(docs, rec.ID)
		}
	}
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]Document, 0, len(ids))
	for _, id := range ids {
		d := docs[id]
		d[IDField] = id
		out = append(out, d)
	}
	return out
}

// TestColdValuesModel drives a dir-backed collection and a memory one with
// the same seeded puts, overwrites, batches and deletes, and in between
// reopens, tears the tail, plants a record to quarantine mid-file,
// tears a write at run time and fails or corrupts reads. Before a reopen the
// dir store must answer every read as the memory store does; after one, as a
// full decode of its WAL file does. A failed or corrupted read must fail,
// never answer other bytes. Replay one seed with
// go test ./internal/store -run TestColdValuesModel -cold.seed=N.
func TestColdValuesModel(t *testing.T) {
	seeds := []int64{*coldSeed}
	if *coldSeed == 0 {
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	for _, seed := range seeds {
		t.Logf("seed %d", seed)
		if err := runColdModel(t, seed, 90); err != nil {
			t.Fatalf("seed %d: %v (replay: go test ./internal/store -run TestColdValuesModel -cold.seed=%d)", seed, err, seed)
		}
	}
}

func runColdModel(t *testing.T, seed int64, steps int) error {
	r := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	ffs := NewFaultFS()
	open := func() (*DB, *Collection, error) {
		db, err := Open(dir, WithFileSystem(ffs), WithSyncPolicy(SyncNever))
		if err != nil {
			return nil, nil, err
		}
		c := db.Collection("c")
		c.EnsureIndex("test_id")
		return db, c, nil
	}
	db, c, err := open()
	if err != nil {
		return err
	}
	defer func() { db.Close() }()
	mem := OpenMemory().Collection("c")
	mem.EnsureIndex("test_id")
	path := WALPath(dir, "c")
	id := func() string { return fmt.Sprintf("d%02d", r.Intn(24)) }
	reopen := func() error {
		db.Close()
		var err error
		if db, c, err = open(); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if got, want := c.Find(nil), replayFile(t, path); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("reopened store answers\n%v\nits WAL decodes to\n%v", got, want)
		}
		return nil
	}
	var trace []string
	for step := 0; step < steps; step++ {
		op := r.Intn(20)
		trace = append(trace, fmt.Sprint(op))
		switch {
		case op < 7: // a put, an overwrite as often as not
			doc := coldDoc(r, id())
			if _, err := c.Insert(doc); err == nil {
				mem.Insert(doc)
			} else if !ffs.Tripped() {
				return fmt.Errorf("step %d: insert: %w", step, err)
			}
		case op < 9: // a batch of new documents
			var docs, copies []Document
			for n := r.Intn(4) + 1; n > 0; n-- {
				doc := coldDoc(r, id())
				docs, copies = append(docs, doc), append(copies, doc.Clone())
			}
			_, errs := c.InsertUniqueBatch(docs)
			for i, err := range errs {
				if err == nil {
					mem.InsertUnique(copies[i])
				}
			}
		case op < 11:
			victim := id()
			if err := c.Delete(victim); err == nil {
				mem.Delete(victim)
			} else if !ffs.Tripped() {
				return fmt.Errorf("step %d: delete: %w", step, err)
			}
		case op == 12:
			if err := reopen(); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		case op == 13: // a crash mid-append: a torn final record
			db.Close()
			if err := appendFile(path, `#w1 deadbeef {"op":"put","id":"torn","doc":{"session":"`+coldString(r, 40)); err != nil {
				return err
			}
			if err := reopen(); err != nil {
				return fmt.Errorf("step %d: torn tail: %w", step, err)
			}
		case op == 14: // a foreign record mid-file, quarantined by the next open
			db.Close()
			if err := plantBadLine(path, r); err != nil {
				return err
			}
			if err := reopen(); err != nil {
				return fmt.Errorf("step %d: quarantine: %w", step, err)
			}
		case op == 15: // a torn write at run time; the store keeps going
			ffs.FailAppendsAfter(int64(r.Intn(400)), nil, true)
			doc := coldDoc(r, id())
			if _, err := c.Insert(doc); err == nil {
				mem.Insert(doc)
			}
			ffs.Reset()
		case op == 16: // reads fail or come back corrupted
			if r.Intn(2) == 0 {
				ffs.FailReads(nil)
			} else {
				ffs.FlipReads()
			}
			err := checkFaultyReads(c, mem)
			ffs.Reset()
			if err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		default:
			for _, v := range []any{"t1", "t2"} {
				if got, want := c.FindEq("test_id", v), mem.FindEq("test_id", v); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("step %d: FindEq(%v) answers\n%v\nmemory answers\n%v", step, v, got, want)
				}
				if got, want := c.IDsEq("test_id", v), mem.IDsEq("test_id", v); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("step %d: IDsEq(%v) = %v, memory %v", step, v, got, want)
				}
			}
		}
		if got, want := c.Find(nil), mem.Find(nil); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("step %d (ops %v): dir store answers\n%v\nmemory store answers\n%v", step, trace, got, want)
		}
		for range 3 {
			k := id()
			got, gerr := c.Get(k)
			want, werr := mem.Get(k)
			if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) {
				return fmt.Errorf("step %d: Get(%s) = %v, %v; memory %v, %v", step, k, got, gerr, want, werr)
			}
		}
		if err := checkColdness(c); err != nil {
			return fmt.Errorf("step %d (ops %v): %w", step, trace, err)
		}
	}
	return reopen()
}

// checkFaultyReads reads every document while reads fail or flip a byte: a
// document with a cold value must fail Get with ErrColdRead and come back
// from Find with the read's error in each cold value's place; every other
// value, and every document without one, reads as the memory store's.
func checkFaultyReads(c *Collection, mem *Collection) error {
	want := mem.Find(nil)
	got := c.Find(nil)
	if len(got) != len(want) {
		return fmt.Errorf("under read faults Find returned %d documents, want %d", len(got), len(want))
	}
	for i, doc := range got {
		failed := false
		for k, v := range want[i] {
			if err, bad := doc[k].(error); bad {
				str, _ := v.(string)
				if !errors.Is(err, ErrColdRead) || len(str) < coldMin {
					return fmt.Errorf("%s.%s: read error %v in place of %q", doc.ID(), k, err, v)
				}
				failed = true
			} else if !reflect.DeepEqual(doc[k], v) {
				return fmt.Errorf("%s.%s: under read faults reads %#v, want %#v", doc.ID(), k, doc[k], v)
			}
		}
		if _, err := c.Get(doc.ID()); failed != errors.Is(err, ErrColdRead) {
			return fmt.Errorf("Get(%s) under read faults: %v, want an ErrColdRead: %v", doc.ID(), err, failed)
		}
	}
	return nil
}

func appendFile(path, s string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteString(s)
	return errors.Join(err, f.Close())
}

// plantBadLine puts a record with a wrong checksum before a random record
// of the WAL, so that it is not the last (which would make it a torn tail).
func plantBadLine(path string, r *rand.Rand) error {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	last := len(lines) - 1
	for last >= 0 && len(bytes.TrimSpace(lines[last])) == 0 {
		last--
	}
	if last < 0 {
		return nil // nothing to plant before
	}
	bad := []byte(`#w1 00000000 {"op":"put","id":"planted","doc":{"session":"` + strings.Repeat("q", 300) + `"}}` + "\n")
	lines = slices.Insert(lines, r.Intn(last+1), bad)
	return os.WriteFile(path, bytes.Join(lines, nil), 0o644)
}
