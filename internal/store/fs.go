package store

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"sync"
)

// FileSystem is the narrow surface the WAL needs from the OS. The default
// implementation (OSFileSystem) passes straight through; tests substitute a
// fault-injecting implementation (FaultFS) to simulate disk-full, torn
// writes, and crashes mid-append without touching real hardware.
type FileSystem interface {
	// ReadFile returns the whole file ([]byte(nil), os.ErrNotExist wrapped
	// when absent is fine — callers check with os.IsNotExist / errors.Is).
	ReadFile(path string) ([]byte, error)
	// WriteFile replaces path with data durably: the contents are synced
	// to stable storage before WriteFile returns. logDir.replace writes a
	// temporary file with it and renames that into place.
	WriteFile(path string, data []byte) error
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Truncate cuts path to size bytes (torn-tail recovery).
	Truncate(path string, size int64) error
	// OpenAppend opens path for appending, creating it if needed. The
	// handle's writes land at the log's logical end: the file's length less
	// any trailing NUL bytes, which no record holds. On the real disk the
	// file may run ahead of that end in zeros (see OSFileSystem.OpenAppend);
	// a reader of a live log trims them with TrimZeroTail.
	OpenAppend(path string) (WALFile, error)
	// OpenRead opens path for positioned reads: the handle a collection
	// reads its cold values back through (see stored.go).
	OpenRead(path string) (ReadAtFile, error)
	// SyncDir fsyncs a directory. Syncing a file's data does not persist
	// its *name* — the directory entry lives in the parent and needs its
	// own fsync — so WAL creation and rewrite renames are not
	// crash-durable until the containing directory has been synced.
	SyncDir(dir string) error
}

// WALFile is an append-only log file handle. Write reports and advances by
// exactly the bytes it put in the file, as an O_APPEND write does, however
// far the file itself runs ahead of them.
type WALFile interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	// Close releases the handle, leaving the file ending at its last
	// written byte.
	Close() error
}

// TrimZeroTail returns log without its trailing NUL bytes: the bytes a
// reader of a live or crashed log is to read. A record is JSON text and
// holds no raw NUL, so the zeros an append handle writes ahead of the log's
// end are never part of one.
func TrimZeroTail(log []byte) []byte { return bytes.TrimRight(log, "\x00") }

// ReadAtFile is a read-only file handle. ReadAt may be called from several
// goroutines at once.
type ReadAtFile interface {
	io.ReaderAt
	Close() error
}

// OSFileSystem is the real-disk FileSystem.
type OSFileSystem struct{}

func (OSFileSystem) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFileSystem) WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	return cmp.Or(err, f.Close())
}

func (OSFileSystem) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (OSFileSystem) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// OpenAppend opens path for appending at its logical end, found by stepping
// back over trailing NUL bytes. Once the handle has synced, it keeps the file
// zeroed and synced at least half a step (walStep) ahead of that end: an
// fsync after a write into zeros already on disk flushes data only, where
// one after an append must also commit the file's new size. The zeros are
// written and synced by a goroutine, so no write waits for a step of them;
// a write waits only while the chunk it would land in is being zeroed. An
// extension that fails gives its space back and stops extending, and the
// writes go on as plain appends. Close joins an extension in flight and
// truncates the file to its logical end. A log that is never synced is
// never extended.
//
// A second handle opened on the same path in this process, as a store
// reopened over a log whose first handle was abandoned without Close does,
// first waits out the earlier handle's extension, turns it off and makes
// its Close leave the file alone: zeros written on behalf of a stale end
// must not land over records written at the new one.
func (OSFileSystem) OpenAppend(path string) (WALFile, error) {
	openAppends.Lock()
	defer openAppends.Unlock()
	if old := openAppends.m[path]; old != nil {
		old.retire()
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL %s: %w", path, err)
	}
	a := &osWAL{f: f, path: path}
	a.zeroed.L = &a.mu
	if a.end, a.size, err = logicalEnd(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: finding the end of WAL %s: %w", path, err)
	}
	openAppends.m[path] = a
	return a, nil
}

func (OSFileSystem) OpenRead(path string) (ReadAtFile, error) { return os.Open(path) }

func (OSFileSystem) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir %s for sync: %w", dir, err)
	}
	if err := cmp.Or(d.Sync(), d.Close()); err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}

// walStep is how much zeroed space one extension adds ahead of a log's
// end; the next one starts once less than half of a step is left, so an
// open log holds at most one and a half steps of zeros.
const walStep = 1 << 20

// zeroChunk is the largest write an extension makes at once, and so the
// longest a log write can wait for one.
var zeroChunk [64 << 10]byte

// openAppends holds the live append handle of each path in this process.
var openAppends = struct {
	sync.Mutex
	m map[string]*osWAL
}{m: make(map[string]*osWAL)}

// osWAL is the real disk's WALFile (see OSFileSystem.OpenAppend).
type osWAL struct {
	f    *os.File
	path string

	mu     sync.Mutex
	zeroed sync.Cond // broadcast when a chunk of zeros lands and when an extension ends
	end    int64     // the logical end: where the next write lands
	size   int64     // the file's length as this handle has made it
	// busyAt and busyTo bound the chunk being zeroed (equal when none).
	busyAt, busyTo int64
	extending      bool  // an extension is in flight; zeroed is broadcast when it ends
	stop           bool  // the extension in flight is to end early
	noExtend       bool  // extend no more: one failed, or the handle is closing or retired
	retired        bool  // a later handle owns the path: Close leaves the file alone
	zeroBytes      int64 // zeros written, the extensions' whole cost in writes
}

// logicalEnd returns the length of f without its trailing NUL bytes, and
// the file's length.
func logicalEnd(f *os.File) (end, size int64, err error) {
	if size, err = f.Seek(0, io.SeekEnd); err != nil {
		return 0, 0, err
	}
	var buf [4 << 10]byte
	for end = size; end > 0; {
		b := buf[:min(end, int64(len(buf)))]
		if _, err := f.ReadAt(b, end-int64(len(b))); err != nil {
			return 0, 0, err
		}
		if kept := len(TrimZeroTail(b)); kept > 0 {
			return end - int64(len(b)-kept), size, nil
		}
		end -= int64(len(b))
	}
	return 0, size, nil
}

func (a *osWAL) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.end < a.busyTo && a.end+int64(len(p)) > a.busyAt {
		a.zeroed.Wait()
	}
	n, err := a.f.WriteAt(p, a.end)
	a.end += int64(n)
	a.size = max(a.size, a.end)
	return n, err
}

// Sync fsyncs the file, then starts an extension when less than half a
// step of zeros is left ahead of the end and none is in flight.
func (a *osWAL) Sync() error {
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.extending && !a.noExtend && a.size-a.end < walStep/2 {
		a.extending = true
		go a.extend(a.size, a.size+walStep)
	}
	return nil
}

// extend zeroes [from, to), a chunk at a time and never below the logical
// end, then fsyncs it. On a failure it truncates the file back to the
// logical end and turns extension off for the handle's life.
func (a *osWAL) extend(from, to int64) {
	var err error
	for at := from; ; {
		a.mu.Lock()
		at = max(at, a.end)
		if a.stop || at >= to {
			stopped := a.stop
			a.mu.Unlock()
			if !stopped {
				err = a.f.Sync()
			}
			break
		}
		next := min(to, at+int64(len(zeroChunk)))
		a.busyAt, a.busyTo = at, next
		a.mu.Unlock()
		var n int
		n, err = a.f.WriteAt(zeroChunk[:next-at], at)
		a.mu.Lock()
		a.size = max(a.size, at+int64(n))
		a.zeroBytes += int64(n)
		a.busyAt, a.busyTo = 0, 0
		a.zeroed.Broadcast()
		a.mu.Unlock()
		if err != nil {
			break
		}
		at = next
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.noExtend = true
		if a.size > a.end && a.f.Truncate(a.end) == nil {
			a.size = a.end
		}
	}
	a.extending = false
	a.zeroed.Broadcast()
}

// halt turns extension off for good and waits for the one in flight: cut
// short when the handle closes, whole when a later handle retires this one,
// which then inherits the step. It reports whether the file runs past its
// logical end and is still this handle's to trim.
func (a *osWAL) halt(retire bool) (trim bool) {
	a.mu.Lock()
	a.noExtend = true
	if retire {
		a.retired = true
	} else {
		a.stop = true
	}
	for a.extending {
		a.zeroed.Wait()
	}
	trim = !a.retired && a.size > a.end
	a.mu.Unlock()
	return trim
}

// retire hands the path to a later handle. Called with openAppends held.
func (a *osWAL) retire() {
	a.halt(true)
	delete(openAppends.m, a.path)
}

func (a *osWAL) Close() error {
	openAppends.Lock()
	if openAppends.m[a.path] == a {
		delete(openAppends.m, a.path)
	}
	openAppends.Unlock()
	var err error
	if a.halt(false) {
		err = a.f.Truncate(a.end)
	}
	return cmp.Or(a.f.Close(), err)
}
