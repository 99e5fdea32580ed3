package store

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// settledHandle returns the real-disk handle under c's log once the
// extension in flight on it, if any, has ended.
func settledHandle(t *testing.T, c *Collection) *osWAL {
	t.Helper()
	c.mu.Lock()
	f := c.wal.log.file
	c.mu.Unlock()
	if ff, ok := f.(*faultFile); ok {
		f = ff.WALFile
	}
	a, ok := f.(*osWAL)
	if !ok {
		t.Fatalf("log handle is a %T, want the real disk's", f)
	}
	a.mu.Lock()
	for a.extending {
		a.zeroed.Wait()
	}
	a.mu.Unlock()
	return a
}

// insertN inserts n documents of about size bytes each and returns their ids.
func insertN(t *testing.T, c *Collection, n, size int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		id, err := c.Insert(Document{"i": i, "pad": strings.Repeat("x", size)})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids[i] = id
	}
	return ids
}

// checkRecovered holds a reopened store to the acknowledged ids: every one
// present, nothing quarantined, and tails tails recovered.
func checkRecovered(t *testing.T, db *DB, c *Collection, acked []string, tails int64) {
	t.Helper()
	if st := db.DurabilityStats(); st.RecoveredTails != tails || st.QuarantinedRecords != 0 {
		t.Errorf("reopen recovered %d tails and quarantined %d records, want %d and 0", st.RecoveredTails, st.QuarantinedRecords, tails)
	}
	if c.Count() != len(acked) {
		t.Errorf("reopened with %d documents, want the %d acknowledged", c.Count(), len(acked))
	}
	for _, id := range acked {
		if _, err := c.Get(id); err != nil {
			t.Errorf("acknowledged %s lost: %v", id, err)
		}
	}
}

// TestCrashImageWithZeroTailRecovers: a byte copy of a live log is what a
// killed process leaves, page cache intact and the synced zeros ahead of the
// log's end included. It reopens with every acknowledged record and no
// recovered tail, and the next append lands right after the last record, on
// a line of its own.
func TestCrashImageWithZeroTailRecovers(t *testing.T) {
	dir, crash := t.TempDir(), t.TempDir()
	db, err := Open(dir, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("c")
	acked := insertN(t, c, 20, 100)
	settledHandle(t, c)
	image, err := os.ReadFile(WALPath(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	logical := TrimZeroTail(image)
	if len(image)-len(logical) < walStep/2 {
		t.Fatalf("the live log holds %d zero bytes past its end, want at least half a step", len(image)-len(logical))
	}
	if err := os.WriteFile(WALPath(crash, "c"), image, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(crash, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatalf("reopen the crash image: %v", err)
	}
	rc := re.Collection("c")
	checkRecovered(t, re, rc, acked, 0)
	id, err := rc.Insert(Document{"after": "the crash"})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	got, err := os.ReadFile(WALPath(crash, "c"))
	if err != nil {
		t.Fatal(err)
	}
	// The reopened handle's first write starts on a new line.
	next, ok := bytes.CutPrefix(got, append(logical, '\n'))
	if !ok || bytes.Count(next, []byte("\n")) != 1 || !bytes.HasSuffix(next, []byte("\n")) {
		t.Fatalf("after the recovered records the log holds %q, want one line", next)
	}
	if rec, class := parseWALLine(next[:len(next)-1]); class != lineOK || rec.ID != id {
		t.Fatalf("the line after the recovered records is %q, want the record of %s", next, id)
	}
}

// TestTornRecordInZeroTailRecovers: a record torn inside the zeroed space is
// cut on reopen and counted as the one recovered tail; no acknowledged
// record is lost or quarantined.
func TestTornRecordInZeroTailRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	db, err := Open(dir, WithFileSystem(ffs), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("c")
	acked := insertN(t, c, 10, 100)
	settledHandle(t, c)
	ffs.FailAppendsAfter(40, nil, true)
	if _, err := c.Insert(Document{"torn": strings.Repeat("y", 200)}); err == nil {
		t.Fatal("the torn write was acknowledged")
	}
	data, err := os.ReadFile(WALPath(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	logical := TrimZeroTail(data)
	if len(data) == len(logical) || bytes.HasSuffix(logical, []byte("\n")) {
		t.Fatalf("the log ends %q with %d zero bytes after it, want a torn record inside zeros", logical[max(0, len(logical)-60):], len(data)-len(logical))
	}
	ffs.Reset()

	// The first store is abandoned, as a crash leaves it.
	re, err := Open(dir, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatalf("reopen after the torn write: %v", err)
	}
	rc := re.Collection("c")
	checkRecovered(t, re, rc, acked, 1)
	acked = append(acked, insertN(t, rc, 1, 100)...)
	re.Close()
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	checkRecovered(t, again, again.Collection("c"), acked, 0)
}

// TestAppendsInsideZeroTailKeepTheFileSize is the mechanism as a count:
// appends into the zeroed space ahead of the log's end leave the file's
// length alone, so their fsyncs commit no new size, and Close leaves
// exactly the log's bytes. It also logs the trade the zeros cost: bytes
// written to the file per log byte, and zeros held by an open log.
func TestAppendsInsideZeroTailKeepTheFileSize(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("c")
	insertN(t, c, 1, 700)
	settledHandle(t, c)
	path := WALPath(dir, "c")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, c, 100, 700)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != after.Size() {
		t.Errorf("100 appends inside the zeros moved the file's length %d -> %d", before.Size(), after.Size())
	}

	// The trade, over a log of several steps.
	var held int64
	for range 600 {
		insertN(t, c, 1, 8<<10)
		a := settledHandle(t, c)
		a.mu.Lock()
		held = max(held, a.size-a.end)
		a.mu.Unlock()
	}
	a := settledHandle(t, c)
	a.mu.Lock()
	logBytes, zeros, ahead := a.end, a.zeroBytes, a.size-a.end
	a.mu.Unlock()
	t.Logf("%d log bytes, %d zero bytes, %d of them still ahead of the end: %.2f bytes written per log byte, %.2f under the log; at most %d zero bytes (%.2f steps) held",
		logBytes, zeros, ahead, float64(logBytes+zeros)/float64(logBytes), float64(logBytes+zeros-ahead)/float64(logBytes), held, float64(held)/walStep)
	if held > walStep*3/2 {
		t.Errorf("the open log held %d zero bytes, want at most one and a half steps (%d)", held, walStep*3/2)
	}
	if zeros-ahead > logBytes {
		t.Errorf("%d zero bytes written under %d log bytes, want at most one per log byte", zeros-ahead, logBytes)
	}

	c.mu.Lock()
	want := c.wal.log.size
	c.mu.Unlock()
	db.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != want || len(TrimZeroTail(data)) != len(data) {
		t.Errorf("closed log is %d bytes ending in %d zeros, want the %d bytes written", len(data), len(data)-len(TrimZeroTail(data)), want)
	}
}
