package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
)

// TestRecoverAfterLostNewline: a log whose last record lost only its
// newline reopens with every record, and the next acknowledged insert
// starts a line of its own, so a second reopen reads it back instead of
// cutting it off, glued to that record, as a torn tail.
func TestRecoverAfterLostNewline(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	acked := insertN(t, db.Collection("c"), 2, 10)
	db.Close()
	stripLastNewline(t, WALPath(dir, "c"))

	re, err := Open(dir, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, re, re.Collection("c"), acked, 0)
	acked = append(acked, insertN(t, re.Collection("c"), 1, 10)...)
	re.Close()

	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	checkRecovered(t, again, again.Collection("c"), acked, 0)
}

// stripLastNewline cuts the newline that ends a closed log.
func stripLastNewline(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut, ok := bytes.CutSuffix(data, []byte("\n"))
	if !ok {
		t.Fatalf("log %s ends %q, want a newline", path, data[max(0, len(data)-20):])
	}
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
}

// syncFailFS is a FaultFS whose append handles fail their next Sync once
// failSync is set.
type syncFailFS struct {
	*FaultFS
	failSync atomic.Bool
}

func (fs *syncFailFS) OpenAppend(path string) (WALFile, error) {
	f, err := fs.FaultFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return syncFailWAL{f, fs}, nil
}

type syncFailWAL struct {
	WALFile
	fs *syncFailFS
}

func (w syncFailWAL) Sync() error {
	if w.fs.failSync.Swap(false) {
		return syscall.EIO
	}
	return w.WALFile.Sync()
}

// logWriter is one of a collection log's two writers: a store collection,
// or a standby's log set appending the lines the store would.
type logWriter struct {
	write func(id string) error
	close func()
}

// TestRecoverAfterFaultOnBothWriters holds the store's collection and the
// standby's log set to the one newline rule through the same fault
// schedules: after each, the log opens with every acknowledged record, no
// recovered tail, and only a failed write's fragment quarantined. Their
// failure policies differ and stay as they are: the store goes on with the
// same handle, the log set drops its handles on any failure.
func TestRecoverAfterFaultOnBothWriters(t *testing.T) {
	writers := map[string]func(t *testing.T, dir string, fs FileSystem) logWriter{
		"store": func(t *testing.T, dir string, fs FileSystem) logWriter {
			db, err := Open(dir, WithFileSystem(fs), WithSyncPolicy(SyncAlways))
			if err != nil {
				t.Fatal(err)
			}
			c := db.Collection("c")
			return logWriter{
				write: func(id string) error { _, err := c.Insert(Document{IDField: id}); return err },
				close: db.Close,
			}
		},
		"standby": func(t *testing.T, dir string, fs FileSystem) logWriter {
			s := NewLogSet(dir, fs)
			return logWriter{
				write: func(id string) error {
					line, err := appendRecord(nil, "put", id, Document{IDField: id})
					if err != nil {
						t.Fatal(err)
					}
					return s.Append([]LogLine{{Collection: "c", Line: bytes.TrimSuffix(line, []byte("\n"))}})
				},
				close: s.Close,
			}
		},
	}
	type env struct {
		dir string
		fs  *syncFailFS
		w   logWriter
	}
	schedules := []struct {
		name        string
		run         func(t *testing.T, e *env, reopen func()) (acked []string)
		quarantined int64
	}{
		{"torn write, then an append", func(t *testing.T, e *env, _ func()) []string {
			mustWrite(t, e.w, "a")
			e.fs.FailAppendsAfter(10, nil, true)
			if err := e.w.write("b"); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("torn write: err = %v, want ENOSPC", err)
			}
			e.fs.Reset()
			mustWrite(t, e.w, "c")
			return []string{"a", "c"}
		}, 1},
		{"newline lost, then a reopen and an append", func(t *testing.T, e *env, reopen func()) []string {
			mustWrite(t, e.w, "a")
			mustWrite(t, e.w, "b")
			e.w.close()
			stripLastNewline(t, WALPath(e.dir, "c"))
			reopen()
			mustWrite(t, e.w, "c")
			return []string{"a", "b", "c"}
		}, 0},
		{"failed fsync, then an append", func(t *testing.T, e *env, _ func()) []string {
			mustWrite(t, e.w, "a")
			e.fs.failSync.Store(true)
			if err := e.w.write("b"); !errors.Is(err, syscall.EIO) {
				t.Fatalf("write over a failing fsync: err = %v, want EIO", err)
			}
			mustWrite(t, e.w, "c")
			return []string{"a", "c"}
		}, 0},
	}
	for name, open := range writers {
		for _, sc := range schedules {
			t.Run(name+"/"+sc.name, func(t *testing.T) {
				e := &env{dir: t.TempDir(), fs: &syncFailFS{FaultFS: NewFaultFS()}}
				reopen := func() { e.w = open(t, e.dir, e.fs) }
				reopen()
				acked := sc.run(t, e, reopen)
				e.w.close()

				db, err := Open(e.dir)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				c := db.Collection("c")
				if st := db.DurabilityStats(); st.RecoveredTails != 0 || st.QuarantinedRecords != sc.quarantined {
					t.Errorf("reopen recovered %d tails and quarantined %d records, want 0 and %d", st.RecoveredTails, st.QuarantinedRecords, sc.quarantined)
				}
				for _, id := range acked {
					if _, err := c.Get(id); err != nil {
						t.Errorf("acknowledged %s lost: %v", id, err)
					}
				}
				for _, d := range c.Find(nil) {
					if !slices.Contains([]string{"a", "b", "c"}, d.ID()) {
						t.Errorf("reopened log holds %s, which no write attempted", d.ID())
					}
				}
			})
		}
	}
}

func mustWrite(t *testing.T, w logWriter, id string) {
	t.Helper()
	if err := w.write(id); err != nil {
		t.Fatalf("write %s: %v", id, err)
	}
}

// recordingFS notes the order of the calls that make a log repair durable:
// append-handle fsyncs, renames and directory fsyncs.
type recordingFS struct {
	FileSystem
	mu    sync.Mutex
	calls []string
}

func (fs *recordingFS) note(call string) {
	fs.mu.Lock()
	fs.calls = append(fs.calls, call)
	fs.mu.Unlock()
}

func (fs *recordingFS) OpenAppend(path string) (WALFile, error) {
	f, err := fs.FileSystem.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return recordingWAL{f, fs, filepath.Base(path)}, nil
}

func (fs *recordingFS) Rename(oldPath, newPath string) error {
	fs.note("rename " + filepath.Base(newPath))
	return fs.FileSystem.Rename(oldPath, newPath)
}

func (fs *recordingFS) SyncDir(dir string) error {
	fs.note("syncdir")
	return fs.FileSystem.SyncDir(dir)
}

type recordingWAL struct {
	WALFile
	fs   *recordingFS
	name string
}

func (w recordingWAL) Sync() error {
	w.fs.note("sync " + w.name)
	return w.WALFile.Sync()
}

// TestQuarantineSidecarSyncedBeforeRename: a quarantine's sidecar is
// fsynced before the rewritten log is renamed over the original, and one
// directory fsync follows the rename, so a power cut at any point keeps the
// quarantined line in one file or the other.
func TestQuarantineSidecarSyncedBeforeRename(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	acked := insertN(t, db.Collection("c"), 1, 10)
	db.Close()
	bad := []byte(`{"op":"explode","id":"x"}`)
	f, err := os.OpenFile(WALPath(dir, "c"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(bad, '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs := &recordingFS{FileSystem: OSFileSystem{}}
	re, err := Open(dir, WithFileSystem(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.DurabilityStats(); st.QuarantinedRecords != 1 {
		t.Errorf("quarantined %d records, want 1", st.QuarantinedRecords)
	}
	if side, err := os.ReadFile(WALPath(dir, "c") + corruptSuffix); err != nil || !bytes.Equal(side, append(bad, '\n')) {
		t.Errorf("sidecar = %q, %v: want the quarantined line", side, err)
	}
	if _, err := re.Collection("c").Get(acked[0]); err != nil {
		t.Errorf("acknowledged %s lost: %v", acked[0], err)
	}
	want := []string{"sync c.jsonl" + corruptSuffix, "rename c.jsonl", "syncdir"}
	if !slices.Equal(fs.calls, want) {
		t.Errorf("the repair made the calls %q, want %q", fs.calls, want)
	}
}
