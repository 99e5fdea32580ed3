package store

import (
	"sync"
	"syscall"
)

// ErrNoSpace is the default injected append failure: disk full.
var ErrNoSpace = syscall.ENOSPC

// FaultFS wraps a FileSystem and injects write faults into WAL appends:
// after a configured number of appended bytes, every further Write fails
// (optionally after persisting a torn prefix, which is what a crash mid
// write leaves behind). It exists so crash-recovery tests can prove the
// property that matters for a days-long crowdsourcing campaign: every
// acknowledged write survives a reopen, and a torn tail never prevents the
// store from opening.
//
// Positioned reads (OpenRead handles, the path cold values come back by)
// can be made to fail or to return a flipped byte; whole-file reads,
// renames, and truncates pass through untouched — recovery itself runs on a
// healthy disk.
type FaultFS struct {
	// Inner is the wrapped FileSystem (OSFileSystem when nil).
	Inner FileSystem

	mu      sync.Mutex
	limit   int64 // appended-byte budget; <0 = unlimited
	written int64
	err     error // returned once the budget is exhausted
	torn    bool  // persist the partial prefix of the failing write
	tripped bool

	dirSyncErr error // injected SyncDir failure (nil = pass through)

	readErr error // injected ReadAt failure (nil = pass through)
	flip    bool  // ReadAt returns its middle byte flipped
}

// NewFaultFS returns a FaultFS over the real disk with no fault armed.
func NewFaultFS() *FaultFS {
	return &FaultFS{Inner: OSFileSystem{}, limit: -1}
}

// FailAppendsAfter arms the fault: once n bytes have been appended across
// all WAL files, writes fail with err (ErrNoSpace when nil). With torn set,
// the failing write first persists the bytes that still fit — a torn write,
// as left by a crash or a partially full disk.
func (f *FaultFS) FailAppendsAfter(n int64, err error, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = ErrNoSpace
	}
	f.limit, f.err, f.torn = n, err, torn
	f.written, f.tripped = 0, false
}

// FailDirSync arms directory-fsync failures: every SyncDir call fails with
// err (ErrNoSpace when nil) until Reset. A failing dir sync is the crash
// window in which a just-created WAL or a completed rename is still only a
// promise — recovery must treat the write it covered as unacknowledged.
func (f *FaultFS) FailDirSync(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = ErrNoSpace
	}
	f.dirSyncErr = err
}

// FailReads arms positioned-read failures: every ReadAt on an OpenRead
// handle fails with err (an I/O error when nil) until Reset.
func (f *FaultFS) FailReads(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = syscall.EIO
	}
	f.readErr = err
}

// FlipReads makes every ReadAt on an OpenRead handle succeed with one bit of
// its middle byte flipped, as a bad sector would, until Reset.
func (f *FaultFS) FlipReads() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flip = true
}

// Reset disarms the fault (the disk "recovers").
func (f *FaultFS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limit = -1
	f.written, f.tripped = 0, false
	f.dirSyncErr = nil
	f.readErr, f.flip = nil, false
}

// Tripped reports whether an injected fault has fired.
func (f *FaultFS) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

func (f *FaultFS) inner() FileSystem {
	if f.Inner == nil {
		return OSFileSystem{}
	}
	return f.Inner
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) { return f.inner().ReadFile(path) }

func (f *FaultFS) WriteFile(path string, data []byte) error {
	return f.inner().WriteFile(path, data)
}

func (f *FaultFS) Rename(oldPath, newPath string) error { return f.inner().Rename(oldPath, newPath) }

func (f *FaultFS) Truncate(path string, size int64) error { return f.inner().Truncate(path, size) }

func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	err := f.dirSyncErr
	if err != nil {
		f.tripped = true
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner().SyncDir(dir)
}

func (f *FaultFS) OpenRead(path string) (ReadAtFile, error) {
	r, err := f.inner().OpenRead(path)
	if err != nil {
		return nil, err
	}
	return &faultReader{ReadAtFile: r, fs: f}, nil
}

// faultReader applies the FaultFS read faults to one read handle.
type faultReader struct {
	ReadAtFile
	fs *FaultFS
}

func (r *faultReader) ReadAt(p []byte, off int64) (int, error) {
	f := r.fs
	f.mu.Lock()
	err, flip := f.readErr, f.flip
	if err != nil || flip {
		f.tripped = true
	}
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n, err := r.ReadAtFile.ReadAt(p, off)
	if flip && n > 0 {
		p[n/2] ^= 1
	}
	return n, err
}

func (f *FaultFS) OpenAppend(path string) (WALFile, error) {
	w, err := f.inner().OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: w}, nil
}

// faultFile applies the FaultFS byte budget to one WAL handle.
type faultFile struct {
	fs    *FaultFS
	inner WALFile
}

func (w *faultFile) Write(p []byte) (int, error) {
	f := w.fs
	f.mu.Lock()
	if f.limit >= 0 && f.written+int64(len(p)) > f.limit {
		keep := 0
		if f.torn {
			keep = int(f.limit - f.written)
		}
		f.written = f.limit
		f.tripped = true
		err := f.err
		f.mu.Unlock()
		if keep > 0 {
			// A torn write: part of the record reaches the disk.
			if _, werr := w.inner.Write(p[:keep]); werr != nil {
				return 0, werr
			}
			_ = w.inner.Sync()
		}
		return keep, err
	}
	f.written += int64(len(p))
	f.mu.Unlock()
	return w.inner.Write(p)
}

func (w *faultFile) Sync() error { return w.inner.Sync() }

func (w *faultFile) Close() error { return w.inner.Close() }
