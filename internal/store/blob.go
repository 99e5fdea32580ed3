package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"kaleidoscope/internal/webgen"
)

// casDir is the reserved prefix holding content-addressed payloads on the
// directory backend. Logical keys may not start with it.
const casDir = ".cas"

// BlobStats are cumulative, per-process counters for a BlobStore. They are
// approximations of disk state across restarts (a fresh process starts from
// zero even over a populated directory) but exact for a single run, which
// is what the dedup regression tests and obs gauges consume.
type BlobStats struct {
	// Puts counts logical blob writes (Put and PutCAS).
	Puts int64
	// CASPuts counts writes routed through PutCAS.
	CASPuts int64
	// DedupHits counts PutCAS writes satisfied by an already-stored payload.
	DedupHits int64
	// BytesSaved totals payload bytes not rewritten thanks to dedup.
	BytesSaved int64
	// UniqueBlobs is the number of distinct live content-addressed payloads.
	UniqueBlobs int64
}

// BlobStore holds the integrated-webpage files the core server serves to
// participants. The paper stores them under a folder named after the test
// id; this store mirrors that layout (testID/pageName/path) and supports
// both in-memory and directory-backed operation.
//
// On top of the plain key/value API the store offers a content-addressed
// layer (PutCAS): payloads are identified by the SHA-256 of their bytes,
// stored once, and logical keys reference them — in memory by sharing the
// backing slice, on disk by hard-linking the logical path to
// .cas/<sha256>. Get and List are oblivious to which API stored a key.
//
// Invariant: a stored payload is never written again. Put copies the
// caller's bytes into a fresh slice and PutCAS keeps the slice its Payload
// owns (memory), or either writes a fresh file (directory: an existing path
// is unlinked, never truncated in place), and overwrite and delete only drop
// references. Open's copy-free view rests on it: a reader over the shared
// slice or the open file sees the complete payload it opened whatever
// happens to the key meanwhile.
type BlobStore struct {
	mu    sync.RWMutex
	dir   string // "" = memory-only
	mem   map[string][]byte
	refs  map[string]string    // logical key -> content hash (CAS-stored keys)
	cas   map[string]*casEntry // content hash -> live payload bookkeeping
	stats BlobStats

	// validators remembers, on the directory backend, the hash Open computed
	// for a key and the file it was computed from. refs cannot serve here:
	// it is per-process, and the directory may be prepared by one process
	// and served (or re-prepared) by another.
	vmu        sync.Mutex
	validators map[string]validator
}

// casEntry tracks one distinct content-addressed payload.
type casEntry struct {
	refs int
	size int
	data []byte // shared payload; nil on the directory backend
}

// NewBlobStore returns a memory-backed blob store.
func NewBlobStore() *BlobStore {
	return &BlobStore{
		mem:  make(map[string][]byte),
		refs: make(map[string]string),
		cas:  make(map[string]*casEntry),
	}
}

// OpenBlobStore returns a blob store persisted under dir.
func OpenBlobStore(dir string) (*BlobStore, error) {
	if dir == "" {
		return nil, errors.New("store: empty blob directory; use NewBlobStore")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating blob dir: %w", err)
	}
	return &BlobStore{
		dir:        dir,
		mem:        make(map[string][]byte),
		refs:       make(map[string]string),
		cas:        make(map[string]*casEntry),
		validators: make(map[string]validator),
	}, nil
}

// ErrInvalidKey reports a blob key that would escape the store root.
var ErrInvalidKey = errors.New("store: invalid blob key")

// cleanKey validates and normalizes a blob key.
func cleanKey(key string) (string, error) {
	key = strings.TrimPrefix(key, "/")
	if key == "" {
		return "", ErrInvalidKey
	}
	clean := filepath.ToSlash(filepath.Clean(key))
	if clean == "." || strings.HasPrefix(clean, "../") || clean == ".." {
		return "", ErrInvalidKey
	}
	if clean == casDir || strings.HasPrefix(clean, casDir+"/") {
		return "", ErrInvalidKey
	}
	return clean, nil
}

// Stats returns a snapshot of the store's per-process counters.
func (b *BlobStore) Stats() BlobStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.stats
}

// Put stores data under key.
func (b *BlobStore) Put(key string, data []byte) error {
	clean, err := cleanKey(key)
	if err != nil {
		return fmt.Errorf("%w: %q", err, key)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Puts++
	if b.dir != "" {
		path := filepath.Join(b.dir, filepath.FromSlash(clean))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("store: creating blob parent: %w", err)
		}
		// Never write through an existing path. It may be a hard link into
		// the CAS area — this process's, or one an earlier process made
		// that b.refs knows nothing about — and truncating it in place
		// would corrupt the shared payload and tear the bytes under a
		// reader that has the file open.
		_ = os.Remove(path)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("store: writing blob %s: %w", clean, err)
		}
		b.releaseLocked(clean)
		return nil
	}
	b.releaseLocked(clean)
	b.mem[clean] = append([]byte(nil), data...)
	return nil
}

// Payload is a blob's bytes together with their SHA-256, the address the
// content-addressed layer stores them under. Only NewPayload computes the
// digest, so the store never trusts one it did not compute, and a payload
// is hashed once however many keys store it. The zero Payload is the empty
// blob.
type Payload struct {
	data []byte
	hash string // hex SHA-256 of data; "" only in the zero Payload
}

// NewPayload digests data and takes ownership of it: the caller must not
// change data afterwards, since the memory backend stores this very slice.
func NewPayload(data []byte) Payload {
	sum := sha256.Sum256(data)
	return Payload{data: data, hash: hex.EncodeToString(sum[:])}
}

// PutCAS stores p under key through the content-addressed layer: if a
// payload with the same SHA-256 is already stored, the key references the
// existing copy instead of writing the bytes again. Concurrency-safe, like
// every BlobStore method.
func (b *BlobStore) PutCAS(key string, p Payload) error {
	clean, err := cleanKey(key)
	if err != nil {
		return fmt.Errorf("%w: %q", err, key)
	}
	if p.hash == "" {
		p = NewPayload(nil)
	}
	data, hash := p.data, p.hash

	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Puts++
	b.stats.CASPuts++
	entry, exists := b.cas[hash]
	if exists {
		b.stats.DedupHits++
		b.stats.BytesSaved += int64(len(data))
	}

	if b.dir != "" {
		casPath := filepath.Join(b.dir, casDir, hash)
		if !exists {
			if err := os.MkdirAll(filepath.Dir(casPath), 0o755); err != nil {
				return fmt.Errorf("store: creating cas dir: %w", err)
			}
			// The payload may survive from a previous process; only write
			// it when absent.
			if _, statErr := os.Stat(casPath); statErr != nil {
				if err := os.WriteFile(casPath, data, 0o644); err != nil {
					return fmt.Errorf("store: writing cas payload %s: %w", hash, err)
				}
			}
			entry = &casEntry{size: len(data)}
			b.cas[hash] = entry
			b.stats.UniqueBlobs++
		}
		path := filepath.Join(b.dir, filepath.FromSlash(clean))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("store: creating blob parent: %w", err)
		}
		_ = os.Remove(path) // links fail on existing targets
		b.releaseLocked(clean)
		if err := os.Link(casPath, path); err != nil {
			// Filesystems without hard links fall back to a plain copy;
			// dedup bookkeeping still applies.
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return fmt.Errorf("store: writing blob %s: %w", clean, err)
			}
		}
		entry.refs++
		b.refs[clean] = hash
		return nil
	}

	if !exists {
		entry = &casEntry{data: data, size: len(data)}
		b.cas[hash] = entry
		b.stats.UniqueBlobs++
	}
	b.releaseLocked(clean)
	entry.refs++
	b.refs[clean] = hash
	b.mem[clean] = entry.data
	return nil
}

// releaseLocked drops key's reference into the CAS layer, if any, and the
// validator remembered for it. Callers hold b.mu.
func (b *BlobStore) releaseLocked(clean string) {
	if b.dir != "" {
		// The stat comparison in Open would catch the rewrite anyway;
		// forgetting here keeps the bookkeeping to live keys.
		b.vmu.Lock()
		delete(b.validators, clean)
		b.vmu.Unlock()
	}
	hash, ok := b.refs[clean]
	if !ok {
		return
	}
	delete(b.refs, clean)
	entry := b.cas[hash]
	if entry == nil {
		return
	}
	entry.refs--
	if entry.refs <= 0 {
		delete(b.cas, hash)
		b.stats.UniqueBlobs--
		if b.dir != "" {
			// Unreferenced payloads are pruned from the CAS area; any
			// hard-linked logical paths keep the data alive on disk.
			_ = os.Remove(filepath.Join(b.dir, casDir, hash))
		}
	}
}

// Delete removes the blob stored under key. Deleting a missing key is an
// error (ErrNotFound), matching Get.
func (b *BlobStore) Delete(key string) error {
	clean, err := cleanKey(key)
	if err != nil {
		return fmt.Errorf("%w: %q", err, key)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.deleteLocked(clean)
}

// deleteLocked removes one normalized key. Callers hold b.mu.
func (b *BlobStore) deleteLocked(clean string) error {
	if b.dir != "" {
		path := filepath.Join(b.dir, filepath.FromSlash(clean))
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				return fmt.Errorf("%w: %s", ErrNotFound, clean)
			}
			return fmt.Errorf("store: deleting blob %s: %w", clean, err)
		}
		b.releaseLocked(clean)
		return nil
	}
	if _, ok := b.mem[clean]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, clean)
	}
	delete(b.mem, clean)
	b.releaseLocked(clean)
	return nil
}

// DeletePrefix removes every blob whose key starts with prefix and returns
// how many were removed. Removing zero keys is not an error — the main
// caller is failure cleanup, which must be idempotent. On the directory
// backend it also prunes the emptied prefix directory and sweeps CAS
// payloads no logical path links to anymore: refcounts are per-process, so
// blobs stored by an earlier process (the prepare CLI) are invisible to
// this process's maps and only the on-disk link count knows they died.
func (b *BlobStore) DeletePrefix(prefix string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys, err := b.listLocked(prefix)
	if err != nil {
		return 0, err
	}
	for _, key := range keys {
		if err := b.deleteLocked(key); err != nil {
			return 0, err
		}
	}
	if b.dir != "" {
		// Every key under the prefix is gone; drop the now-empty directory
		// tree. Only when the prefix names a directory unambiguously — a
		// trailing slash — so "t-1/" cannot take "t-10" with it.
		if dirKey, err := cleanKey(prefix); err == nil && strings.HasSuffix(prefix, "/") {
			_ = os.RemoveAll(filepath.Join(b.dir, filepath.FromSlash(dirKey)))
		}
		if len(keys) > 0 {
			b.sweepOrphanedCASLocked()
		}
	}
	return len(keys), nil
}

// sweepOrphanedCASLocked removes CAS payload files whose on-disk hard-link
// count shows no logical path references them. Payloads this process
// tracks as live are skipped regardless of link count (the hard-link
// fallback stores logical copies, leaving the payload at one link while
// referenced). Callers hold b.mu.
func (b *BlobStore) sweepOrphanedCASLocked() {
	entries, err := os.ReadDir(filepath.Join(b.dir, casDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		hash := e.Name()
		if b.cas[hash] != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if st, ok := info.Sys().(*syscall.Stat_t); ok && st.Nlink <= 1 {
			_ = os.Remove(filepath.Join(b.dir, casDir, hash))
		}
	}
}

// Get returns the blob stored under key.
func (b *BlobStore) Get(key string) ([]byte, error) {
	clean, err := cleanKey(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", err, key)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.dir != "" {
		data, err := os.ReadFile(filepath.Join(b.dir, filepath.FromSlash(clean)))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
			}
			return nil, fmt.Errorf("store: reading blob %s: %w", clean, err)
		}
		return data, nil
	}
	data, ok := b.mem[clean]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
	}
	return append([]byte(nil), data...), nil
}

// BlobView is a read-only open of one stored payload, for serving it
// without copying it. Close it when done.
type BlobView struct {
	// Content reads the payload from its start: the store's own slice on
	// the memory backend, the open file on the directory backend.
	Content io.ReadSeeker
	Size    int64
	// ETag is a strong validator, the payload's SHA-256 in hex between
	// quotes, or "" when the store holds no hash for the key (a memory key
	// stored with plain Put).
	ETag string

	mem  bytes.Reader
	file *os.File
}

// Close releases the open file, if the view holds one.
func (v *BlobView) Close() error {
	if v.file == nil {
		return nil
	}
	return v.file.Close()
}

// validator is the hash of a directory-backend payload together with the
// identity of the file it was read from. It is believed only while the key
// still names a file with that inode, size and modification time.
type validator struct {
	ino   uint64
	size  int64
	mtime time.Time
	etag  string
}

// racyWindow is how long after its modification time a file must have been
// hashed for the hash to be remembered: the granularity of that timestamp.
// A file hashed sooner could be rewritten after the hash — same size,
// recycled inode — and still show the same mtime, so its hash serves the
// one answer and is computed again next time (the rule git applies to its
// index). A stamp with sub-millisecond digits comes from a file system that
// keeps nanoseconds, where only the kernel's tick is coarse (10 ms at
// HZ=100); anything rounder may be whole seconds, or FAT's two.
func racyWindow(mtime time.Time) time.Duration {
	if mtime.Nanosecond()%int(time.Millisecond) != 0 {
		return 20 * time.Millisecond
	}
	return 2 * time.Second
}

// Open returns a read-only view of the blob stored under key: its size, its
// validator and a reader over the stored bytes themselves. It is the
// serving path's read; Get is for callers that want a copy they own.
func (b *BlobStore) Open(key string) (*BlobView, error) {
	clean, err := cleanKey(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", err, key)
	}
	// Held to the end, as Get holds it across ReadFile: a DeletePrefix
	// then runs wholly before this open (not found) or wholly after it
	// (and forgets the validator remembered here).
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.dir == "" {
		data, ok := b.mem[clean]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
		}
		v := &BlobView{Size: int64(len(data))}
		if hash, ok := b.refs[clean]; ok {
			v.ETag = `"` + hash + `"`
		}
		v.mem.Reset(data)
		v.Content = &v.mem
		return v, nil
	}
	f, err := os.Open(filepath.Join(b.dir, filepath.FromSlash(clean)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
		}
		return nil, fmt.Errorf("store: opening blob %s: %w", clean, err)
	}
	// Stat the descriptor, not the path: the validator must describe the
	// bytes this view will read.
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: opening blob %s: %w", clean, err)
	}
	if !info.Mode().IsRegular() {
		// A key that names a directory ("t/page") is not a blob.
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
	}
	etag, err := b.fileETag(clean, f, info)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: hashing blob %s: %w", clean, err)
	}
	return &BlobView{Content: f, Size: info.Size(), ETag: etag, file: f}, nil
}

// fileETag returns the validator of the open blob file f: the remembered
// one while f is the file it was computed from, otherwise a fresh hash of
// f's bytes (leaving f at its start).
func (b *BlobStore) fileETag(clean string, f *os.File, info os.FileInfo) (string, error) {
	st, identified := info.Sys().(*syscall.Stat_t)
	if identified {
		b.vmu.Lock()
		v, ok := b.validators[clean]
		b.vmu.Unlock()
		if ok && v.ino == st.Ino && v.size == info.Size() && v.mtime.Equal(info.ModTime()) {
			return v.etag, nil
		}
	}
	hashedAt := time.Now()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", err
	}
	etag := `"` + hex.EncodeToString(h.Sum(nil)) + `"`
	if identified && hashedAt.Sub(info.ModTime()) >= racyWindow(info.ModTime()) {
		b.vmu.Lock()
		b.validators[clean] = validator{ino: st.Ino, size: info.Size(), mtime: info.ModTime(), etag: etag}
		b.vmu.Unlock()
	}
	return etag, nil
}

// List returns the sorted keys under the given prefix. Content-addressed
// payloads (the .cas area) are internal and never listed.
func (b *BlobStore) List(prefix string) ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	keys, err := b.listLocked(prefix)
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// listLocked collects keys under prefix, unsorted. Callers hold b.mu (read
// or write).
func (b *BlobStore) listLocked(prefix string) ([]string, error) {
	prefix = strings.TrimPrefix(prefix, "/")
	var keys []string
	if b.dir != "" {
		root := b.dir
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() {
				if rel, relErr := filepath.Rel(root, path); relErr == nil && filepath.ToSlash(rel) == casDir {
					return filepath.SkipDir
				}
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			key := filepath.ToSlash(rel)
			if strings.HasPrefix(key, prefix) {
				keys = append(keys, key)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("store: listing blobs: %w", err)
		}
		return keys, nil
	}
	for key := range b.mem {
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	return keys, nil
}

// siteKey builds the blob key for one file of a stored site.
func siteKey(testID, pageName, rel string) string {
	return testID + "/" + pageName + "/" + rel
}

// PutSite stores one page's files under testID/pageName/, in name order,
// plus a marker naming its main file so GetSite can reconstruct it. Files go
// through the content-addressed layer, so pages sharing bytes (the
// identical-pair control, repeated versions, a common shell) store them once.
func (b *BlobStore) PutSite(testID, pageName, mainFile string, files map[string]Payload) error {
	if main, ok := files[mainFile]; !ok || len(main.data) == 0 {
		return fmt.Errorf("store: main file %q missing or empty in %s/%s", mainFile, testID, pageName)
	}
	if err := b.PutCAS(siteKey(testID, pageName, ".main"), NewPayload([]byte(mainFile))); err != nil {
		return err
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := b.PutCAS(siteKey(testID, pageName, name), files[name]); err != nil {
			return err
		}
	}
	return nil
}

// GetSite reconstructs a site stored with PutSite.
func (b *BlobStore) GetSite(testID, pageName string) (*webgen.Site, error) {
	main, err := b.Get(siteKey(testID, pageName, ".main"))
	if err != nil {
		return nil, err
	}
	site := webgen.NewSite(string(main))
	prefix := testID + "/" + pageName + "/"
	keys, err := b.List(prefix)
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		rel := strings.TrimPrefix(key, prefix)
		if rel == ".main" {
			continue
		}
		data, err := b.Get(key)
		if err != nil {
			return nil, err
		}
		site.Put(rel, data)
	}
	if err := site.Validate(); err != nil {
		return nil, fmt.Errorf("store: reconstructing %s/%s: %w", testID, pageName, err)
	}
	return site, nil
}
