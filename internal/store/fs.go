package store

import (
	"fmt"
	"io"
	"os"
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
	// to stable storage before WriteFile returns. Used for quarantine
	// rewrites of a WAL and for a standby's snapshot sections and position
	// file, each to a temp file paired with Rename for atomicity.
	WriteFile(path string, data []byte) error
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Truncate cuts path to size bytes (torn-tail recovery).
	Truncate(path string, size int64) error
	// OpenAppend opens path for appending, creating it if needed.
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

// WALFile is an append-only log file handle.
type WALFile interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	Close() error
}

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
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (OSFileSystem) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (OSFileSystem) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (OSFileSystem) OpenAppend(path string) (WALFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL %s: %w", path, err)
	}
	return f, nil
}

func (OSFileSystem) OpenRead(path string) (ReadAtFile, error) { return os.Open(path) }

func (OSFileSystem) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir %s for sync: %w", dir, err)
	}
	syncErr := d.Sync()
	if err := d.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	if syncErr != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, syncErr)
	}
	return nil
}
