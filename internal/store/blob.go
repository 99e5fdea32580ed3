package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// casDir is the reserved prefix holding content-addressed payloads on the
// directory backend. Logical keys may not start with it.
const casDir = ".cas"

// BlobStats are cumulative, per-process counters for a BlobStore. They are
// approximations of disk state across restarts (a fresh process starts from
// zero even over a populated directory) but exact for a single run, which
// is what the dedup regression tests and obs gauges consume.
type BlobStats struct {
	// DedupHits counts PutCAS writes that gave a key an already-stored
	// payload it did not reference yet.
	DedupHits int64
	// BytesSaved totals payload bytes not rewritten thanks to dedup.
	BytesSaved int64
	// UniqueBlobs is the number of distinct live content-addressed payloads.
	UniqueBlobs int64
	// Reused counts Recall hits: payloads a caller took from the memo of
	// derived payloads instead of computing them again.
	Reused int64
}

// BlobStore holds the integrated-webpage files the core server serves to
// participants. The paper stores them under a folder named after the test
// id; keys are slash-separated paths (testID/pageName/file), and the
// directory backend keeps every key as one file in its root, named by
// keyPath, so that storing a key never makes a directory.
//
// The store is one content-addressed map: every key references a payload
// identified by the SHA-256 of its bytes, and a payload is stored once
// however many keys reference it — in memory by sharing the backing slice,
// on disk by hard-linking the logical path to .cas/<sha256>. That digest is
// the validator Open serves.
//
// Beside it the store keeps a memo of derived payloads: Remember notes that
// an input (a caller's digest of whatever it computed the payload from)
// produced a stored payload, and Recall hands that payload back. The memo
// lives in process memory only and holds no bytes of its own: one input per
// live payload, dropped when the payload's last key is released.
//
// Invariant: a stored payload is never written again. The memory backend
// keeps the slice its Payload owns, the directory backend writes a fresh
// file (renamed over an existing key's file, never written through it), and
// overwrite and delete only drop references. Open's copy-free view rests on
// it: a reader over the shared slice or the open file sees the complete
// payload it opened whatever happens to the key meanwhile.
type BlobStore struct {
	mu    sync.RWMutex
	dir   string               // "" = memory-only
	refs  map[string]string    // logical key -> content hash (on disk: this process's keys)
	cas   map[string]*casEntry // content hash -> live payload bookkeeping
	memo  map[string]string    // input digest -> content hash (Remember)
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
	refs  int
	data  []byte // shared payload; nil on the directory backend
	file  fileID // the .cas file as this process wrote or adopted it (directory backend)
	input string // the memo key naming this payload, "" for none
}

// fileID is a file's identity as a stat reports it. A file that still shows
// the same inode, size and modification time is taken to hold the bytes it
// held when the identity was taken.
type fileID struct {
	ino   uint64
	size  int64
	mtime int64 // UnixNano
}

// idOf returns info's identity, or false where the platform reports no inode.
func idOf(info os.FileInfo) (fileID, bool) {
	st, ok := info.Sys().(*syscall.Stat_t)
	if !ok {
		return fileID{}, false
	}
	return fileID{ino: st.Ino, size: info.Size(), mtime: info.ModTime().UnixNano()}, true
}

// NewBlobStore returns a memory-backed blob store.
func NewBlobStore() *BlobStore {
	return &BlobStore{
		refs: make(map[string]string),
		cas:  make(map[string]*casEntry),
		memo: make(map[string]string),
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
	b := NewBlobStore()
	b.dir, b.validators = dir, make(map[string]validator)
	if err := b.flatten(); err != nil {
		return nil, err
	}
	return b, nil
}

// keyUnescaper maps the name of a key's file back to the key (escapeKey).
var keyUnescaper = strings.NewReplacer("%2F", "/", "%25", "%")

// escapeKey appends to dst the name of key's file in the directory
// backend's root: key with "%" written "%25" and "/" written "%2F".
func escapeKey(dst []byte, key string) []byte {
	for i := 0; i < len(key); i++ {
		switch c := key[i]; c {
		case '%':
			dst = append(dst, "%25"...)
		case '/':
			dst = append(dst, "%2F"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// keyPath returns the file that holds the cleaned key clean. It is on the
// serving path, so it builds the path on the stack and allocates only the
// string it returns.
func (b *BlobStore) keyPath(clean string) string {
	var buf [256]byte
	path := append(append(buf[:0], b.dir...), filepath.Separator)
	return string(escapeKey(path, clean))
}

// keyOf returns the key whose file in the root is named name, and false for
// a name keyPath gives no key.
func keyOf(name string) (string, bool) {
	key := keyUnescaper.Replace(name)
	clean, err := cleanKey(key)
	return key, err == nil && clean == key && string(escapeKey(nil, key)) == name
}

// flatten moves every file below a subdirectory of the root other than .cas
// to the name keyPath gives its key, then removes the emptied directories.
// It upgrades a store written with a directory per key segment; a rename
// keeps the inode, and with it the hard link to the key's .cas payload, and
// an upgrade cut short is finished by the next open. A file another open
// moved first is skipped. A key whose name is too long for one file stays
// where it is, and the store no longer reaches it: Get and Open answer
// ErrNotFound and List omits it. params.Validate refuses a test id that
// long, so only a test prepared before that limit can hold such a key.
func (b *BlobStore) flatten() error {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("store: reading blob dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == casDir {
			continue
		}
		var dirs []string
		err := filepath.WalkDir(filepath.Join(b.dir, e.Name()), func(path string, d fs.DirEntry, err error) error {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			if d.IsDir() {
				dirs = append(dirs, path)
				return nil
			}
			rel, err := filepath.Rel(b.dir, path)
			if err != nil {
				return err
			}
			key := filepath.ToSlash(rel)
			err = os.Rename(path, b.keyPath(key))
			if err == nil || errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENAMETOOLONG) {
				return nil
			}
			return fmt.Errorf("store: moving blob %s into the blob dir's root: %w", key, err)
		})
		if err != nil {
			return err
		}
		// Deepest first; a directory that still holds something stays.
		for i := len(dirs) - 1; i >= 0; i-- {
			_ = os.Remove(dirs[i])
		}
	}
	return nil
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

// Put stores a private copy of data under key (PutCAS of the copy).
func (b *BlobStore) Put(key string, data []byte) error {
	return b.PutCAS(key, NewPayload(bytes.Clone(data)))
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

// PutCAS stores p under key: if a payload with the same SHA-256 is already
// stored, the key references the existing copy instead of writing the bytes
// again. Concurrency-safe, like every BlobStore method.
func (b *BlobStore) PutCAS(key string, p Payload) error {
	clean, err := cleanKey(key)
	if err != nil {
		return fmt.Errorf("%w: %q", err, key)
	}
	if p.hash == "" {
		p = NewPayload(nil)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	entry := b.cas[p.hash]
	// A key that already references the payload shares nothing new, so it
	// counts no dedup hit, and it keeps its reference: releasing it first
	// would drop the payload's last one, and with it the CAS entry, its memo
	// key and, on disk, the .cas file, before the key took it again.
	held := entry != nil && b.refs[clean] == p.hash
	if entry != nil && !held {
		b.stats.DedupHits++
		b.stats.BytesSaved += int64(len(p.data))
	}

	if b.dir == "" {
		if entry == nil {
			entry = b.addLocked(p.hash, p.data)
		}
		if !held {
			b.referLocked(clean, p.hash, entry)
		}
		return nil
	}

	casPath := filepath.Join(b.dir, casDir, p.hash)
	path := b.keyPath(clean)
	intact := entry != nil && isFile(casPath, entry.file)
	if !intact {
		file, err := writeCASFile(casPath, p.hash, p.data)
		if err != nil {
			return err
		}
		if entry == nil {
			entry = b.addLocked(p.hash, nil)
		}
		entry.file = file
	}
	if held && intact {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
	}
	if held {
		// The key's file is gone, or links the file just replaced.
		b.forgetValidator(clean)
	} else {
		b.referLocked(clean, p.hash, entry)
	}
	if err := linkFile(casPath, path, p.data); err != nil {
		b.releaseLocked(clean)
		return fmt.Errorf("store: writing blob %s: %w", clean, err)
	}
	return nil
}

// addLocked starts the bookkeeping of a payload no key references yet.
// Callers hold b.mu and take the first reference.
func (b *BlobStore) addLocked(hash string, data []byte) *casEntry {
	entry := &casEntry{data: data}
	b.cas[hash] = entry
	b.stats.UniqueBlobs++
	return entry
}

// referLocked points clean at the payload hash, whose bookkeeping is entry,
// releasing what clean referenced before. Callers hold b.mu.
func (b *BlobStore) referLocked(clean, hash string, entry *casEntry) {
	b.releaseLocked(clean)
	entry.refs++
	b.refs[clean] = hash
}

// isFile reports, with one stat, whether path is still the file that had
// identity id. Writers replace a .cas file only by renaming a complete one
// over it, so what this misses there is a rewrite in place that keeps the
// inode, the size and the modification time, which only another program
// could make.
func isFile(path string, id fileID) bool {
	info, err := os.Stat(path)
	if err != nil {
		return false
	}
	got, ok := idOf(info)
	return ok && got == id
}

// linkFile makes path name the payload at casPath: a hard link, or a copy of
// data where the file system makes none. A path that names no file yet is
// linked in place. Otherwise the new file is made under a temporary name in
// the CAS area and renamed over path: a reader of path opens the old file or
// the new one, never none, and the old file is never written through (it
// may be a hard link into the CAS area, and truncating it would corrupt the
// shared payload and tear the bytes under a reader that has it open).
func linkFile(casPath, path string, data []byte) error {
	if os.Link(casPath, path) == nil {
		return nil
	}
	tmp := fmt.Sprintf("%s.link%016x", casPath, rand.Uint64())
	if os.Link(casPath, tmp) != nil {
		var err error
		if tmp, _, err = writeTemp(filepath.Dir(casPath), filepath.Base(casPath)+".copy", data); err != nil {
			return err
		}
	}
	err := os.Rename(tmp, path)
	// A rename of one link of a file over another link of it does nothing
	// and succeeds, leaving tmp behind; after any other rename tmp is gone.
	_ = os.Remove(tmp)
	return err
}

// writeCASFile makes the file at casPath hold data, whose hex SHA-256 is
// hash, and returns that file's identity. A file already there (a previous
// process's) is adopted only when its bytes hash to its name: a write cut
// short by a crash or a full disk leaves a short file under the full
// payload's name, and adopting it would serve the torn bytes under every key
// linked to it. Otherwise the payload is written under a temporary name and
// renamed into place, so the name never holds a partial payload.
func writeCASFile(casPath, hash string, data []byte) (fileID, error) {
	if file, ok := adoptCASFile(casPath, hash); ok {
		return file, nil
	}
	dir := filepath.Dir(casPath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fileID{}, fmt.Errorf("store: creating cas dir: %w", err)
	}
	tmp, info, err := writeTemp(dir, hash+".tmp", data)
	if err == nil {
		if err = os.Rename(tmp, casPath); err != nil {
			_ = os.Remove(tmp)
		}
	}
	if err != nil {
		return fileID{}, fmt.Errorf("store: writing cas payload %s: %w", hash, err)
	}
	file, _ := idOf(info)
	return file, nil
}

// writeTemp writes data to a new file in dir whose name starts with prefix,
// and returns its path and what a stat of it showed. It removes the file if
// the write fails.
func writeTemp(dir, prefix string, data []byte) (string, os.FileInfo, error) {
	tmp, err := os.CreateTemp(dir, prefix+"*")
	if err != nil {
		return "", nil, err
	}
	var info os.FileInfo
	_, err = tmp.Write(data)
	if err == nil {
		info, err = tmp.Stat()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return "", nil, err
	}
	return tmp.Name(), info, nil
}

// adoptCASFile returns the identity of the file at casPath when its bytes
// hash to hash.
func adoptCASFile(casPath, hash string) (fileID, bool) {
	f, err := os.Open(casPath)
	if err != nil {
		return fileID{}, false
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fileID{}, false
	}
	if sum, err := hashReader(f); err != nil || sum != hash {
		return fileID{}, false
	}
	return idOf(info)
}

// hashReader returns the hex SHA-256 of what r reads.
func hashReader(r io.Reader) (string, error) {
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Recall returns the stored payload an earlier Remember noted for input.
// It misses when nothing was noted, when every key of that payload has been
// released since, or when, on the directory backend, the payload's file is
// no longer the one this process wrote or adopted.
func (b *BlobStore) Recall(input string) (Payload, bool) {
	b.mu.Lock()
	hash := b.memo[input]
	entry := b.cas[hash]
	var file fileID
	if entry != nil {
		file = entry.file
	}
	b.mu.Unlock()
	if entry == nil {
		return Payload{}, false
	}
	p := Payload{data: entry.data, hash: hash}
	if b.dir != "" {
		// The directory backend holds no payload bytes in memory: read them
		// back from the CAS file, so that the caller holds them even if the
		// file goes before it stores the payload again.
		casPath := filepath.Join(b.dir, casDir, hash)
		if !isFile(casPath, file) {
			return Payload{}, false
		}
		data, err := os.ReadFile(casPath)
		if err != nil {
			return Payload{}, false
		}
		p.data = data
	}
	b.mu.Lock()
	b.stats.Reused++
	b.mu.Unlock()
	return p, true
}

// Remember notes that input produced p, so that a later Recall(input)
// returns p instead of its caller computing it again. Only a payload the CAS
// layer holds (some key stores it) is noted; otherwise Remember does
// nothing. A payload is named by one input at a time, the last remembered.
func (b *BlobStore) Remember(input string, p Payload) {
	b.mu.Lock()
	defer b.mu.Unlock()
	entry := b.cas[p.hash]
	if entry == nil {
		return
	}
	if old := b.cas[b.memo[input]]; old != nil && old.input == input {
		old.input = ""
	}
	if entry.input != "" {
		delete(b.memo, entry.input)
	}
	entry.input = input
	b.memo[input] = p.hash
}

// forgetValidator drops the validator Open remembered for clean. The stat
// comparison in Open would catch a rewrite anyway; forgetting keeps the
// bookkeeping to live keys.
func (b *BlobStore) forgetValidator(clean string) {
	if b.dir == "" {
		return
	}
	b.vmu.Lock()
	delete(b.validators, clean)
	b.vmu.Unlock()
}

// releaseLocked drops key's reference into the CAS layer, if any, and the
// validator remembered for it. Callers hold b.mu.
func (b *BlobStore) releaseLocked(clean string) {
	b.forgetValidator(clean)
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
		if entry.input != "" {
			delete(b.memo, entry.input)
		}
		b.stats.UniqueBlobs--
		if b.dir != "" {
			// Unreferenced payloads are pruned from the CAS area; any
			// hard-linked logical paths keep the data alive on disk.
			_ = os.Remove(filepath.Join(b.dir, casDir, hash))
		}
	}
}

// DeletePrefix removes every blob whose key starts with prefix and returns
// how many were removed. Removing zero keys is not an error — the main
// caller is failure cleanup, which must be idempotent. On the directory
// backend it also sweeps CAS payloads no key's file links to anymore:
// refcounts are per-process, so blobs stored by an earlier process (the
// prepare CLI) are invisible to this process's maps and only the on-disk
// link count knows they died.
func (b *BlobStore) DeletePrefix(prefix string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys, err := b.listLocked(prefix)
	if err != nil {
		return 0, err
	}
	for _, key := range keys {
		if b.dir != "" {
			if err := os.Remove(b.keyPath(key)); err != nil && !os.IsNotExist(err) {
				return 0, fmt.Errorf("store: deleting blob %s: %w", key, err)
			}
		}
		b.releaseLocked(key)
	}
	if b.dir != "" && len(keys) > 0 {
		b.sweepOrphanedCASLocked()
	}
	return len(keys), nil
}

// sweepOrphanedCASLocked removes CAS payload files whose on-disk hard-link
// count shows no logical path references them. Payloads this process
// tracks as live are skipped regardless of link count (the hard-link
// fallback stores logical copies, leaving the payload at one link while
// referenced). Any other name in .cas is a temporary file a put makes and
// renames away; one is removed only once it is older than staleTemp, so
// that a put another process is making is never cut short, while one a
// crash left behind (a ".link" name keeps its payload's link count up) goes
// in time. Callers hold b.mu.
func (b *BlobStore) sweepOrphanedCASLocked() {
	entries, err := os.ReadDir(filepath.Join(b.dir, casDir))
	if err != nil {
		return
	}
	now := time.Now()
	for _, e := range entries {
		name := e.Name()
		if b.cas[name] != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		st, ok := info.Sys().(*syscall.Stat_t)
		if !ok {
			continue
		}
		orphaned := st.Nlink <= 1
		if !isDigest(name) {
			orphaned = isStaleTemp(st, now)
		}
		if orphaned {
			_ = os.Remove(filepath.Join(b.dir, casDir, name))
		}
	}
}

// staleTemp is the age past which a temporary file in .cas is taken for one
// a crashed put left behind. A put renames its file away within one write of
// the payload.
const staleTemp = time.Hour

// isStaleTemp reports whether the file st describes had its inode last
// changed more than staleTemp before now. The change time, not the
// modification time: a ".link" name is a fresh link to an old file, and
// making the link sets the change time.
func isStaleTemp(st *syscall.Stat_t, now time.Time) bool {
	return now.Sub(time.Unix(st.Ctim.Unix())) > staleTemp
}

// isDigest reports whether name is a SHA-256 in lower-case hex, the name of
// a payload in .cas.
func isDigest(name string) bool {
	if len(name) != sha256.Size*2 {
		return false
	}
	for _, c := range name {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
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
		data, err := os.ReadFile(b.keyPath(clean))
		if err != nil {
			if unstored(err) {
				return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
			}
			return nil, fmt.Errorf("store: reading blob %s: %w", clean, err)
		}
		return data, nil
	}
	hash, ok := b.refs[clean]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
	}
	return bytes.Clone(b.cas[hash].data), nil
}

// unstored reports whether err, from opening a key's file, means that the
// key is not stored: its file does not exist, or its name is too long for
// any file, which PutCAS refuses to store.
func unstored(err error) bool {
	return os.IsNotExist(err) || errors.Is(err, syscall.ENAMETOOLONG)
}

// BlobView is a read-only open of one stored payload, for serving it
// without copying it. Close it when done.
type BlobView struct {
	// Content reads the payload from its start: the store's own slice on
	// the memory backend, the open file on the directory backend.
	Content io.ReadSeeker
	Size    int64
	// ETag is a strong validator, the payload's SHA-256 in hex between
	// quotes.
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
// still names a file with that identity.
type validator struct {
	file fileID
	etag string
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
		hash, ok := b.refs[clean]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
		}
		data := b.cas[hash].data
		v := &BlobView{Size: int64(len(data)), ETag: `"` + hash + `"`}
		v.mem.Reset(data)
		v.Content = &v.mem
		return v, nil
	}
	f, err := os.Open(b.keyPath(clean))
	if err != nil {
		if unstored(err) {
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
	file, identified := idOf(info)
	if identified {
		b.vmu.Lock()
		v, ok := b.validators[clean]
		b.vmu.Unlock()
		if ok && v.file == file {
			return v.etag, nil
		}
	}
	hashedAt := time.Now()
	sum, err := hashReader(f)
	if err != nil {
		return "", err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", err
	}
	etag := `"` + sum + `"`
	if identified && hashedAt.Sub(info.ModTime()) >= racyWindow(info.ModTime()) {
		b.vmu.Lock()
		b.validators[clean] = validator{file: file, etag: etag}
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
		entries, err := os.ReadDir(b.dir)
		if err != nil {
			return nil, fmt.Errorf("store: listing blobs: %w", err)
		}
		for _, e := range entries {
			if key, ok := keyOf(e.Name()); ok && !e.IsDir() && strings.HasPrefix(key, prefix) {
				keys = append(keys, key)
			}
		}
		return keys, nil
	}
	for key := range b.refs {
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	return keys, nil
}
