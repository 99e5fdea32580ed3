package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// liveDocs snapshots a collection's documents for replay-equality checks.
func liveDocs(c *Collection) []Document { return c.Find(nil) }

// walLineCount counts non-blank lines in a collection's log.
func walLineCount(t *testing.T, dir, name string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ln := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(ln)) > 0 {
			n++
		}
	}
	return n
}

// TestFramedReplayEqualsLive is the core durability property: after any mix
// of inserts, updates, and deletes, reopening the store yields exactly the
// live in-memory state.
func TestFramedReplayEqualsLive(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("sessions")
	var ids []string
	for i := 0; i < 20; i++ {
		id, err := c.Insert(Document{"i": i, "nested": map[string]any{"n": i * 2}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if i%3 == 0 {
			if _, err := c.Insert(Document{IDField: id, "i": i, "nested": map[string]any{"n": i * 2}, "updated": true}); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 0 {
			if err := c.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := liveDocs(c)
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	got := liveDocs(db2.Collection("sessions"))
	if !reflect.DeepEqual(want, got) {
		t.Errorf("replayed state differs from live state:\nlive: %v\nreplayed: %v", want, got)
	}
}

// TestLegacyUnframedReplay: logs written before CRC framing replay
// transparently, and new appends upgrade to framed records.
func TestLegacyUnframedReplay(t *testing.T) {
	dir := t.TempDir()
	legacy := `{"op":"put","id":"doc-1","doc":{"_id":"doc-1","v":1}}
{"op":"put","id":"doc-2","doc":{"_id":"doc-2","v":2}}
{"op":"del","id":"doc-2"}
`
	if err := os.WriteFile(filepath.Join(dir, "c.jsonl"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open legacy: %v", err)
	}
	c := db.Collection("c")
	if c.Count() != 1 {
		t.Fatalf("count = %d, want 1", c.Count())
	}
	if _, err := c.Insert(Document{IDField: "doc-3", "v": 3}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	data, err := os.ReadFile(filepath.Join(dir, "c.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), frameMagic+" ") {
		t.Error("new append should be framed")
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen mixed: %v", err)
	}
	defer db2.Close()
	if got := db2.Collection("c").Count(); got != 2 {
		t.Errorf("count after mixed replay = %d, want 2", got)
	}
}

// TestTornFinalRecordTruncated: a crash mid-append leaves a partial framed
// line; open truncates it and recovers everything acknowledged before it.
func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("c")
	for i := 0; i < 3; i++ {
		if _, err := c.Insert(Document{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// Simulate the torn write: append half of a framed record.
	path := filepath.Join(dir, "c.jsonl")
	full := frameRecord([]byte(`{"op":"put","id":"doc-4","doc":{"_id":"doc-4"}}`))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if got := db2.Collection("c").Count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if s := db2.DurabilityStats(); s.RecoveredTails != 1 || s.QuarantinedRecords != 0 {
		t.Errorf("stats = %+v, want 1 recovered tail", s)
	}
	db2.Close()

	// The repair is durable: a second open finds nothing to fix.
	db3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if s := db3.DurabilityStats(); s.RecoveredTails != 0 {
		t.Errorf("second open recovered again: %+v", s)
	}
	if got := db3.Collection("c").Count(); got != 3 {
		t.Errorf("count after second open = %d, want 3", got)
	}
}

func TestEmptyWALFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "empty.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if got := db.Collection("empty").Count(); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
}

// TestUnknownOpQuarantined: a structurally valid record with an unknown op
// is moved to the .corrupt sidecar; the store opens and keeps everything
// else.
func TestUnknownOpQuarantined(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	buf.Write(frameRecord([]byte(`{"op":"put","id":"doc-1","doc":{"_id":"doc-1","v":1}}`)))
	buf.Write(frameRecord([]byte(`{"op":"explode","id":"doc-9"}`)))
	buf.Write(frameRecord([]byte(`{"op":"put","id":"doc-2","doc":{"_id":"doc-2","v":2}}`)))
	path := filepath.Join(dir, "c.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := db.Collection("c").Count(); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	if s := db.DurabilityStats(); s.QuarantinedRecords != 1 {
		t.Errorf("stats = %+v, want 1 quarantined", s)
	}
	db.Close()

	side, err := os.ReadFile(path + corruptSuffix)
	if err != nil {
		t.Fatalf("sidecar: %v", err)
	}
	if !strings.Contains(string(side), "explode") {
		t.Errorf("sidecar missing quarantined record: %q", side)
	}
	// The WAL was rewritten clean: reopening quarantines nothing new.
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if s := db2.DurabilityStats(); s.QuarantinedRecords != 0 {
		t.Errorf("reopen quarantined again: %+v", s)
	}
}

// TestMidFileCorruptionQuarantined: garbage between valid records (bit rot,
// a foreign writer) is quarantined rather than making the store unopenable.
func TestMidFileCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	buf.Write(frameRecord([]byte(`{"op":"put","id":"doc-1","doc":{"_id":"doc-1"}}`)))
	buf.WriteString("### scribbled by a rogue process ###\n")
	buf.Write(frameRecord([]byte(`{"op":"put","id":"doc-2","doc":{"_id":"doc-2"}}`)))
	if err := os.WriteFile(filepath.Join(dir, "c.jsonl"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if got := db.Collection("c").Count(); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	if s := db.DurabilityStats(); s.QuarantinedRecords != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestCorruptedChecksumQuarantined: a framed record whose payload was
// altered after the fact fails its CRC and is quarantined mid-file.
func TestCorruptedChecksumQuarantined(t *testing.T) {
	dir := t.TempDir()
	bad := frameRecord([]byte(`{"op":"put","id":"doc-1","doc":{"_id":"doc-1","v":1}}`))
	bad = bytes.Replace(bad, []byte(`"v":1`), []byte(`"v":7`), 1) // flip bits, keep old CRC
	var buf bytes.Buffer
	buf.Write(bad)
	buf.Write(frameRecord([]byte(`{"op":"put","id":"doc-2","doc":{"_id":"doc-2"}}`)))
	if err := os.WriteFile(filepath.Join(dir, "c.jsonl"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	c := db.Collection("c")
	if c.Count() != 1 {
		t.Errorf("count = %d, want 1 (tampered record dropped)", c.Count())
	}
	if _, err := c.Get("doc-1"); !errors.Is(err, ErrNotFound) {
		t.Error("tampered doc-1 must not replay")
	}
}

// TestCrashRecoveryFaultInjection is the acceptance property: whatever byte
// the disk dies at, every acknowledged insert survives a reopen, and the
// store never fails to open.
func TestCrashRecoveryFaultInjection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int64
		torn  bool
	}{
		{"enospc-at-0", 0, false},
		{"enospc-at-100", 100, false},
		{"torn-at-137", 137, true},
		{"torn-at-777", 777, true},
		{"torn-at-2000", 2000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS()
			ffs.FailAppendsAfter(tc.limit, nil, tc.torn)
			db, err := Open(dir, WithFileSystem(ffs), WithSyncPolicy(SyncAlways))
			if err != nil {
				t.Fatal(err)
			}
			c := db.Collection("uploads")
			var acked []string
			for i := 0; i < 200; i++ {
				id, err := c.Insert(Document{"i": i, "pad": strings.Repeat("x", 15)})
				if err != nil {
					break // the crash
				}
				acked = append(acked, id)
			}
			if !ffs.Tripped() {
				t.Fatal("fault never fired; test is vacuous")
			}
			live := liveDocs(c)

			// "Crash": reopen the directory with a healthy filesystem.
			db2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer db2.Close()
			c2 := db2.Collection("uploads")
			if c2.Count() != len(acked) {
				t.Errorf("recovered %d docs, want %d acknowledged", c2.Count(), len(acked))
			}
			for i, id := range acked {
				doc, err := c2.Get(id)
				if err != nil {
					t.Fatalf("acknowledged doc %s lost: %v", id, err)
				}
				if got, _ := doc.Int("i"); got != i {
					t.Errorf("doc %s: i = %d, want %d", id, got, i)
				}
			}
			if replayed := liveDocs(c2); !reflect.DeepEqual(live, replayed) {
				t.Error("replayed state differs from live pre-crash state")
			}
		})
	}
}

// TestENOSPCRecoversInPlace: a full disk fails the write cleanly; once
// space frees up the same handles keep working and nothing acknowledged is
// lost.
func TestENOSPCRecoversInPlace(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	db, err := Open(dir, WithFileSystem(ffs), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("c")
	if _, err := c.Insert(Document{IDField: "keep", "v": 1}); err != nil {
		t.Fatal(err)
	}
	ffs.FailAppendsAfter(0, nil, false)
	if _, err := c.Insert(Document{IDField: "lost", "v": 2}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if _, err := c.Get("lost"); !errors.Is(err, ErrNotFound) {
		t.Error("failed insert must not be applied in memory")
	}
	ffs.Reset()
	if _, err := c.Insert(Document{IDField: "after", "v": 3}); err != nil {
		t.Fatalf("insert after disk recovery: %v", err)
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := db2.Collection("c")
	if c2.Count() != 2 {
		t.Errorf("count = %d, want 2", c2.Count())
	}
	for _, id := range []string{"keep", "after"} {
		if _, err := c2.Get(id); err != nil {
			t.Errorf("doc %s: %v", id, err)
		}
	}
}

// TestENOSPCTornThenRecoversInPlace is the same disk filling mid-record: the
// failed append leaves ten bytes of a line behind, the disk recovers, and the
// next append on the same handle is acknowledged. That record must start its
// own line — glued to the fragment it would be thrown away with it on reopen.
func TestENOSPCTornThenRecoversInPlace(t *testing.T) {
	writers := map[string]func(*Collection, string) error{
		"Insert": func(c *Collection, id string) error {
			_, err := c.Insert(Document{IDField: id})
			return err
		},
		"InsertUniqueBatch": func(c *Collection, id string) error {
			_, errs := c.InsertUniqueBatch([]Document{{IDField: id}, {IDField: id + "-2"}})
			return errors.Join(errs...)
		},
	}
	for name, write := range writers {
		for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
			t.Run(fmt.Sprintf("%s/policy=%d", name, policy), func(t *testing.T) {
				dir := t.TempDir()
				ffs := NewFaultFS()
				db, err := Open(dir, WithFileSystem(ffs), WithSyncPolicy(policy))
				if err != nil {
					t.Fatal(err)
				}
				c := db.Collection("c")
				if err := write(c, "a"); err != nil {
					t.Fatal(err)
				}
				ffs.FailAppendsAfter(10, nil, true)
				if err := write(c, "b"); !errors.Is(err, ErrNoSpace) {
					t.Fatalf("err = %v, want ENOSPC", err)
				}
				ffs.Reset()
				if err := write(c, "c"); err != nil {
					t.Fatalf("write after disk recovery: %v", err)
				}
				acked := c.Count()
				db.Close()

				db2, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer db2.Close()
				c2 := db2.Collection("c")
				for _, id := range []string{"a", "c"} {
					if _, err := c2.Get(id); err != nil {
						t.Errorf("acknowledged doc %s: %v", id, err)
					}
				}
				if _, err := c2.Get("b"); !errors.Is(err, ErrNotFound) {
					t.Errorf("the failed write was applied: %v", err)
				}
				if c2.Count() != acked {
					t.Errorf("count = %d after reopen, %d were acknowledged", c2.Count(), acked)
				}
				stats := db2.DurabilityStats()
				if stats.QuarantinedRecords != 1 || stats.RecoveredTails != 0 {
					t.Errorf("quarantined %d, truncated %d: want the fragment quarantined alone", stats.QuarantinedRecords, stats.RecoveredTails)
				}
				side, err := os.ReadFile(filepath.Join(dir, "c.jsonl"+corruptSuffix))
				if err != nil || len(side) != 11 || !bytes.HasPrefix(side, []byte(frameMagic+" ")) {
					t.Errorf("quarantine sidecar = %q, %v: want the ten torn bytes", side, err)
				}
			})
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		db, err := Open(t.TempDir(), WithSyncPolicy(SyncAlways))
		if err != nil {
			t.Fatal(err)
		}
		c := db.Collection("c")
		for i := 0; i < 5; i++ {
			if _, err := c.Insert(Document{"i": i}); err != nil {
				t.Fatal(err)
			}
		}
		if s := db.DurabilityStats(); s.Fsyncs < 5 {
			t.Errorf("fsyncs = %d, want >= 5", s.Fsyncs)
		}
		db.Close()
	})
	t.Run("never", func(t *testing.T) {
		db, err := Open(t.TempDir(), WithSyncPolicy(SyncNever))
		if err != nil {
			t.Fatal(err)
		}
		c := db.Collection("c")
		for i := 0; i < 5; i++ {
			if _, err := c.Insert(Document{"i": i}); err != nil {
				t.Fatal(err)
			}
		}
		db.Close()
		if s := db.DurabilityStats(); s.Fsyncs != 0 {
			t.Errorf("fsyncs = %d, want 0 under SyncNever", s.Fsyncs)
		}
	})
	t.Run("interval-group-commit", func(t *testing.T) {
		db, err := Open(t.TempDir(), WithSyncInterval(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		c := db.Collection("c")
		for i := 0; i < 5; i++ {
			if _, err := c.Insert(Document{"i": i}); err != nil {
				t.Fatal(err)
			}
		}
		if s := db.DurabilityStats(); s.Fsyncs != 0 {
			t.Errorf("fsyncs before interval = %d, want 0", s.Fsyncs)
		}
		db.Close() // close flushes regardless of the window
		if s := db.DurabilityStats(); s.Fsyncs != 1 {
			t.Errorf("fsyncs after close = %d, want 1", s.Fsyncs)
		}
	})
}

// TestErrClosed: every mutation and Get fail with ErrClosed after Close;
// bulk reads return empty. Close is idempotent.
func TestErrClosed(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("c")
	id, err := c.Insert(Document{"v": 1})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	db.Close() // idempotent

	if _, err := c.Insert(Document{"v": 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert err = %v, want ErrClosed", err)
	}
	if _, err := c.InsertUnique(Document{IDField: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("InsertUnique err = %v, want ErrClosed", err)
	}
	if err := c.Delete(id); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete err = %v, want ErrClosed", err)
	}
	if _, err := c.Get(id); !errors.Is(err, ErrClosed) {
		t.Errorf("Get err = %v, want ErrClosed", err)
	}
	if got := c.Find(nil); got != nil {
		t.Errorf("Find on closed db = %v, want nil", got)
	}
	if got := c.FindEq("v", 1); got != nil {
		t.Errorf("FindEq on closed db = %v, want nil", got)
	}
	if got := c.CountEq("v", 1); got != 0 {
		t.Errorf("CountEq on closed db = %d, want 0", got)
	}

	// Nothing leaked past Close onto disk; the acknowledged doc is there.
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Collection("c").Count(); got != 1 {
		t.Errorf("count after reopen = %d, want 1", got)
	}
}

// TestScanAccounting: every logical read counts exactly one scan or one
// index hit — never both, never double.
func TestScanAccounting(t *testing.T) {
	db := OpenMemory()
	c := db.Collection("c")
	c.EnsureIndex("a")
	for i := 0; i < 4; i++ {
		if _, err := c.Insert(Document{"a": "x", "b": i}); err != nil {
			t.Fatal(err)
		}
	}
	base := c.Stats()
	if base.Scans != 0 || base.IndexHits != 0 {
		t.Fatalf("base stats = %+v", base)
	}
	step := func(name string, wantScans, wantHits int64, op func()) {
		t.Helper()
		before := c.Stats()
		op()
		after := c.Stats()
		if after.Scans-before.Scans != wantScans || after.IndexHits-before.IndexHits != wantHits {
			t.Errorf("%s: scans +%d hits +%d, want +%d/+%d",
				name, after.Scans-before.Scans, after.IndexHits-before.IndexHits, wantScans, wantHits)
		}
	}
	step("Find", 1, 0, func() { c.Find(nil) })
	step("FindEq indexed", 0, 1, func() { c.FindEq("a", "x") })
	step("FindEq unindexed", 1, 0, func() { c.FindEq("b", 2) })
	step("FindEq non-comparable", 1, 0, func() { c.FindEq("a", []any{"x"}) })
	step("CountEq indexed", 0, 1, func() { c.CountEq("a", "x") })
	step("CountEq unindexed", 1, 0, func() { c.CountEq("b", 2) })
}
