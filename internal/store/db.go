// Package store implements Kaleidoscope's storage substrate: a small
// embedded document database (standing in for the paper's MongoDB) and a
// blob store for integrated-webpage files. The database holds schemaless
// JSON documents in named collections — the paper uses three: integrated
// webpages, test information, and participant responses — supports
// filtered queries, and persists each collection as a checksummed
// JSON-lines write-ahead log that is replayed (and repaired) on open.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Document is one schemaless record. Values must be JSON-encodable.
type Document map[string]any

// IDField is the key under which a document's identity is stored, echoing
// MongoDB's convention.
const IDField = "_id"

// ID returns the document's id ("" when unset).
func (d Document) ID() string {
	id, _ := d[IDField].(string)
	return id
}

// Clone returns a deep copy of the document, equal to what a JSON
// round-trip of it would decode to. JSON-shaped values — nested
// map[string]any and []any, strings, bools, nil, and numbers (normalized to
// float64, as decoding would) — are copied structurally; a document holding
// anything else (a json.Number, a struct, a string that is not valid UTF-8)
// takes the round-trip itself.
func (d Document) Clone() Document {
	if d == nil {
		return nil
	}
	if cp, ok := cloneMap(d); ok {
		return cp
	}
	return d.cloneJSON()
}

func cloneMap(m map[string]any) (map[string]any, bool) {
	cp := make(map[string]any, len(m))
	for k, v := range m {
		c, ok := cloneValue(v)
		if !ok || !utf8.ValidString(k) {
			return nil, false
		}
		cp[k] = c
	}
	return cp, true
}

// cloneValue copies one JSON-shaped value; ok is false for a value whose
// round-trip form cannot be produced without encoding it.
func cloneValue(v any) (c any, ok bool) {
	switch x := v.(type) {
	case nil, bool, float64:
		return x, true
	case string:
		return x, utf8.ValidString(x)
	case map[string]any:
		if x == nil {
			return nil, true // encodes as null
		}
		return cloneMap(x)
	case Document:
		return cloneValue(map[string]any(x))
	case []any:
		if x == nil {
			return nil, true // encodes as null
		}
		cp := make([]any, len(x))
		for i, e := range x {
			if cp[i], ok = cloneValue(e); !ok {
				return nil, false
			}
		}
		return cp, true
	case json.Number:
		// Its text may be no JSON number at all.
		return nil, false
	default:
		n := normalizeValue(v)
		_, ok = n.(float64)
		return n, ok
	}
}

// cloneJSON is the JSON round-trip Clone falls back to.
func (d Document) cloneJSON() Document {
	var cp Document
	if data, err := json.Marshal(d); err == nil && json.Unmarshal(data, &cp) == nil {
		return cp
	}
	// Non-encodable values violate the Document contract; fall back to a
	// shallow copy rather than corrupting the store.
	return maps.Clone(d)
}

// Common errors.
var (
	ErrNotFound    = errors.New("store: document not found")
	ErrClosed      = errors.New("store: database closed")
	ErrDuplicateID = errors.New("store: duplicate id")
)

// options collects Open-time configuration.
type options struct {
	fs       FileSystem
	policy   SyncPolicy
	interval time.Duration
}

// Option configures Open.
type Option func(*options)

// WithFileSystem substitutes the filesystem the WAL runs on (fault
// injection in tests; the real disk by default).
func WithFileSystem(fs FileSystem) Option {
	return func(o *options) { o.fs = fs }
}

// WithSyncPolicy selects when WAL appends are fsynced. The default,
// SyncInterval, fsyncs at most once per interval and only on an append, so
// a power cut can lose the writes acknowledged since the last fsync, with no
// time bound once writes pause; SyncAlways makes every acknowledged write
// durable. SyncPolicy states each promise.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *options) { o.policy = p }
}

// WithSyncInterval sets the SyncInterval group-commit window (default
// 100ms). Non-positive durations fsync on every append.
func WithSyncInterval(d time.Duration) Option {
	return func(o *options) { o.interval = d }
}

func defaultOptions() options {
	return options{fs: OSFileSystem{}, policy: SyncInterval, interval: 100 * time.Millisecond}
}

// DB is a collection-oriented document database. The zero value is not
// usable; construct with Open or OpenMemory.
type DB struct {
	mu          sync.RWMutex
	dir         string // "" = memory-only
	opts        options
	shipper     Shipper // non-nil on a replicated backend
	collections map[string]*Collection
	closed      atomic.Bool

	// Durability counters; see DurabilityStats.
	recoveredTails atomic.Int64
	quarantined    atomic.Int64
	walAppends     atomic.Int64
	fsyncs         atomic.Int64
	fsyncNanos     atomic.Int64
	dirSyncs       atomic.Int64
	coldReads      atomic.Int64
}

// OpenMemory returns a purely in-memory database.
func OpenMemory() *DB {
	return &DB{opts: defaultOptions(), collections: make(map[string]*Collection)}
}

// Open returns a database persisted under dir (created if needed). Each
// collection is stored as <dir>/<name>.jsonl and replayed on open. Replay
// repairs crash damage instead of refusing to start: a torn final record
// is truncated, and corrupt or invalid records elsewhere are moved to a
// <name>.jsonl.corrupt sidecar for inspection.
func Open(dir string, opts ...Option) (*DB, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory; use OpenMemory")
	}
	return OpenBackend(Dir(dir), opts...)
}

// Collection returns (creating if necessary) the named collection.
func (db *DB) Collection(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	if c, ok := db.collections[name]; ok {
		return c
	}
	c := &Collection{
		name: name,
		db:   db,
		docs: make(map[string]stored),
	}
	db.collections[name] = c
	return c
}

// CollectionNames returns the sorted names of existing collections.
func (db *DB) CollectionNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.collections))
	for n := range db.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close marks the database closed and flushes and closes every
// collection's WAL handle. Subsequent mutations and Get return ErrClosed;
// Find/FindEq/CountEq return empty results.
func (db *DB) Close() {
	if db.closed.Swap(true) {
		return
	}
	db.mu.RLock()
	colls := make([]*Collection, 0, len(db.collections))
	for _, c := range db.collections {
		colls = append(colls, c)
	}
	db.mu.RUnlock()
	for _, c := range colls {
		c.mu.Lock()
		if c.wal != nil {
			_ = c.wal.close()
		}
		c.mu.Unlock()
	}
}

// isClosed reports whether Close has been called.
func (db *DB) isClosed() bool { return db.closed.Load() }

// walRecord is one line of a collection's JSONL log.
type walRecord struct {
	Op  string   `json:"op"` // "put" or "del"
	ID  string   `json:"id"`
	Doc Document `json:"doc,omitempty"`
}

// loadCollection replays (and, when damaged, repairs) a collection's WAL.
func (db *DB) loadCollection(name string) (*Collection, error) {
	c := &Collection{name: name, db: db, docs: make(map[string]stored)}
	path := db.collectionPath(name)
	data, err := db.opts.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return c, nil
		}
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	rep := scanWAL(data)
	if err := recoverWAL(db.opts.fs, path, &rep); err != nil {
		return nil, err
	}
	if len(rep.quarantined) > 0 {
		// The rewrite swapped a new file into place; make the rename stick.
		if err := db.syncDir(); err != nil {
			return nil, err
		}
	}
	if rep.truncateAt >= 0 {
		db.recoveredTails.Add(1)
	}
	db.quarantined.Add(int64(len(rep.quarantined)))
	c.wal = &walFile{path: path, db: db, size: rep.size}
	for i, rec := range rep.records {
		switch rec.Op {
		case "put":
			s := c.freeze(rec.Doc)
			c.chillReplayed(s, rec, rep.goodLines[i], rep.at[i])
			c.docs[rec.ID] = s
		case "del":
			delete(c.docs, rec.ID)
		}
		// Track the sequence high-water mark for id generation.
		if n, ok := parseSeqID(rec.ID); ok && n > c.seq {
			c.seq = n
		}
	}
	return c, nil
}

// chillReplayed makes cold the values of s, a replayed put, when its line
// (at file offset at) is the very line appendRecord writes for the record,
// as every line the store wrote itself is: then the literals appendRecord
// reports are where they sit in the file.
func (c *Collection) chillReplayed(s stored, rec walRecord, line []byte, at int64) {
	if !slices.ContainsFunc(s.vals, func(v any) bool {
		str, ok := v.(string)
		return ok && len(str) >= coldMin
	}) {
		return
	}
	lits := c.lits[:0]
	frame, err := appendRecordLits(c.frames[:0], rec.Op, rec.ID, rec.Doc, &lits)
	c.frames, c.lits = frame[:0], lits
	if err == nil && len(lits) > 0 && bytes.Equal(frame[:len(frame)-1], line) && c.wal.readable() {
		c.chill(s, frame, lits, at)
	}
}

func (db *DB) collectionPath(name string) string {
	return filepath.Join(db.dir, name+".jsonl")
}

// parseSeqID recognizes generated ids of the form "doc-<n>".
func parseSeqID(id string) (int64, bool) {
	const prefix = "doc-"
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.ParseInt(id[len(prefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// maxKeptFrames caps the framing buffer a collection keeps between writes:
// ten batches of 100 sessions' worth.
const maxKeptFrames = 1 << 20

// Collection is a named set of documents.
type Collection struct {
	mu       sync.RWMutex
	name     string
	db       *DB
	docs     map[string]stored
	shapes   []*shape
	seq      int64
	indexes  map[string]*fieldIndex
	onChange []func(op, id string, note any)

	// wal is the log file on a persistent database (nil until it has one);
	// frames is the buffer a write's records are framed into, reused from
	// write to write (the file and the shipper appendFrames hands it to both
	// copy what they keep), and lits the literals found in them. All guarded
	// by mu.
	wal    *walFile
	frames []byte
	lits   []literal

	indexHits atomic.Int64
	scans     atomic.Int64
}

// appendWAL writes one record to the collection's log when the database is
// persistent, and then makes the values of s that may go cold so; a "del"
// passes the zero stored. Called with c.mu held.
func (c *Collection) appendWAL(op, id string, s stored) error {
	if c.db.dir == "" {
		return nil
	}
	lits := c.lits[:0]
	frames, err := appendRecordLits(c.frames[:0], op, id, s.view(id), &lits)
	if c.lits = lits; err != nil {
		return fmt.Errorf("store: encoding WAL record: %w", err)
	}
	at, err := c.appendFrames(frames, 1)
	if err == nil && len(lits) > 0 && c.wal.readable() {
		c.chill(s, frames, lits, at)
	}
	return err
}

// appendFrames is the one write path to a collection's log: it lazily opens
// the WAL handle (syncing the directory so the new file's name is as
// durable as its contents), appends n pre-framed records in one Write, and
// then does what an acknowledgement needs: the fsync the sync policy
// demands and — on a replicated backend — the shipping of the exact bytes
// that went into the file. Neither depends on the other, so on a
// replicated backend they run at the same time and the write waits for
// both: it costs the slower of the local fsync and the follower's round,
// not their sum. Either failing fails the write, the local error first:
// the record may then sit unacknowledged in the local WAL, on the follower,
// or both, which the idempotent replay tolerates, but the caller is never
// told it happened. Called with c.mu held — that is what keeps the log,
// the shipping order and the in-memory apply one sequence. frames is built
// on c.frames and becomes it again, unless one outsized write grew it past
// what is worth keeping for the next. It returns the file offset the frames
// were written at.
func (c *Collection) appendFrames(frames []byte, n int) (int64, error) {
	if c.db.dir == "" {
		return 0, nil
	}
	c.frames = frames[:0]
	if cap(frames) > maxKeptFrames {
		c.frames = nil
	}
	if c.wal == nil {
		c.wal = &walFile{path: c.db.collectionPath(c.name), db: c.db}
	}
	w := c.wal
	if w.file == nil && !w.closed {
		f, err := c.db.opts.fs.OpenAppend(w.path)
		if err != nil {
			return 0, err
		}
		if err := c.db.syncDir(); err != nil {
			f.Close()
			return 0, err
		}
		w.file, w.lastSync = f, time.Now()
	}
	at, err := w.write(frames, n)
	if err != nil {
		return 0, err
	}
	due := w.syncDue()
	s := c.db.shipper
	if s == nil {
		if due {
			return at, w.sync()
		}
		return at, nil
	}
	var synced chan error
	if due {
		// Nothing else touches w until this write returns: the caller
		// holds c.mu and joins below.
		synced = make(chan error, 1)
		go func() { synced <- w.sync() }()
	}
	shipErr := s.Ship(c.name, frames, n)
	if due {
		if err := <-synced; err != nil {
			return 0, err
		}
	}
	if shipErr != nil {
		return 0, fmt.Errorf("store: replicating WAL append: %w", shipErr)
	}
	return at, nil
}

// syncDir fsyncs the store directory so file creations and renames inside
// it are crash-durable. No-op on a memory database.
func (db *DB) syncDir() error {
	if db.dir == "" {
		return nil
	}
	db.dirSyncs.Add(1)
	return db.opts.fs.SyncDir(db.dir)
}

// Insert stores a new document and returns its id. When the document lacks
// an _id one is generated; inserting a document whose _id already exists
// overwrites it (upsert), matching the store's last-write-wins semantics.
// Numeric values are normalized to float64 on the way in, so a live document
// always equals its WAL-replayed form.
func (c *Collection) Insert(doc Document) (string, error) {
	return c.insert(doc, false)
}

// InsertUnique is Insert without the upsert: when a document with the same
// _id already exists it fails with ErrDuplicateID and changes nothing. The
// existence check and the insert happen under one lock, so concurrent
// duplicate inserts cannot both succeed.
func (c *Collection) InsertUnique(doc Document) (string, error) {
	return c.insert(doc, true)
}

func (c *Collection) insert(doc Document, unique bool) (string, error) {
	if c.db.isClosed() {
		return "", ErrClosed
	}
	c.mu.Lock()
	s, id := c.freezeCopy(doc)
	if id == "" {
		c.seq++
		id = "doc-" + strconv.FormatInt(c.seq, 10)
	}
	old, exists := c.docs[id]
	if exists && unique {
		c.mu.Unlock()
		return "", fmt.Errorf("%w: %s/%s", ErrDuplicateID, c.name, id)
	}
	if err := c.appendWAL("put", id, s); err != nil {
		c.mu.Unlock()
		return "", err
	}
	if exists {
		c.removeFromIndexes(id, old)
	}
	c.docs[id] = s
	c.addToIndexes(id, s)
	fns := c.onChange
	c.mu.Unlock()
	c.notify(fns, OpPut, id, nil)
	return id, nil
}

// Get returns a copy of the document with the given id.
func (c *Collection) Get(id string) (Document, error) {
	if c.db.isClosed() {
		return nil, ErrClosed
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.docs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, c.name, id)
	}
	doc, err := c.thaw(id, s)
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// Find returns copies of all documents matching the predicate, sorted by
// id for determinism. A nil predicate matches everything. The predicate is
// handed each document's fresh copy — the copy Find returns when it
// matches — so writing to it changes nothing stored. Find always scans the
// whole collection; equality lookups should use FindEq, which consults the
// declared indexes. A value that cannot be read back is its read's error in
// the copy (see ErrColdRead). On a closed database Find returns nil.
func (c *Collection) Find(pred func(Document) bool) []Document {
	if c.db.isClosed() {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := c.thawSorted(c.scanLocked(nil))
	if pred != nil {
		out = slices.DeleteFunc(out, func(d Document) bool { return !pred(d) })
	}
	return out
}

// scanLocked performs (and counts) one full-collection scan, returning the
// ids of the documents match accepts (every one for a nil match), unsorted;
// callers hold at least the read lock. The scan is counted here — exactly
// once per logical operation — so FindEq/CountEq fallbacks and Find agree on
// accounting.
func (c *Collection) scanLocked(match func(id string, s stored) bool) []string {
	c.scans.Add(1)
	ids := make([]string, 0, len(c.docs))
	for id, s := range c.docs {
		if match == nil || match(id, s) {
			ids = append(ids, id)
		}
	}
	return ids
}

// thawSorted sorts ids and returns copies of their documents in that order;
// callers hold at least the read lock.
func (c *Collection) thawSorted(ids []string) []Document {
	slices.Sort(ids)
	out := make([]Document, len(ids))
	for i, id := range ids {
		out[i], _ = c.thaw(id, c.docs[id])
	}
	return out
}

// FindEq returns documents whose field equals value, sorted by id. When the
// field is indexed (EnsureIndex) this is a map lookup plus a copy of the
// matching documents; otherwise it scans. Numeric values are compared after
// JSON normalization (all numbers are float64). A value that cannot be read
// back is its read's error in the copy, as in Find. On a closed database
// FindEq returns nil.
func (c *Collection) FindEq(field string, value any) []Document {
	if c.db.isClosed() {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.thawSorted(c.idsEqLocked(field, value))
}

// IDsEq returns the ids of the documents FindEq would return, in the same
// order, without reading the documents: on an indexed field, the ids the
// index holds. On a closed database IDsEq returns nil.
func (c *Collection) IDsEq(field string, value any) []string {
	if c.db.isClosed() {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := c.idsEqLocked(field, value)
	slices.Sort(ids)
	return ids
}

// idsEqLocked returns, unsorted, the ids of the documents whose field
// equals value; callers hold at least the read lock.
func (c *Collection) idsEqLocked(field string, value any) []string {
	if ix, ok := c.indexes[field]; ok {
		if key, comparable := indexKey(value); comparable {
			set := ix.lookup(key)
			ids := make([]string, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			c.indexHits.Add(1)
			return ids
		}
	}
	norm := normalizeValue(value)
	return c.scanLocked(func(id string, s stored) bool {
		return normalizeValue(c.field(id, s, field)) == norm
	})
}

// field returns a document's field as its thawed copy holds it; callers
// hold at least the read lock.
func (c *Collection) field(id string, s stored, name string) any {
	v := s.get(id, name)
	if ref, ok := v.(cold); ok {
		str, err := c.readCold(ref)
		if err != nil {
			return err
		}
		return str
	}
	return v
}

// CountEq reports how many documents have field equal to value. On an
// indexed field this is O(1) — no documents are copied — which is what the
// serving path's listing counters use. On a closed database CountEq
// returns 0.
func (c *Collection) CountEq(field string, value any) int {
	if c.db.isClosed() {
		return 0
	}
	c.mu.RLock()
	if ix, ok := c.indexes[field]; ok {
		if key, comparable := indexKey(value); comparable {
			n := len(ix.lookup(key))
			c.mu.RUnlock()
			c.indexHits.Add(1)
			return n
		}
	}
	c.scans.Add(1)
	norm := normalizeValue(value)
	n := 0
	for id, s := range c.docs {
		if normalizeValue(c.field(id, s, field)) == norm {
			n++
		}
	}
	c.mu.RUnlock()
	return n
}

// normalizeValue maps numeric types onto float64 so values survive the
// JSON round-trip documents go through.
func normalizeValue(v any) any {
	switch n := v.(type) {
	case int:
		return float64(n)
	case int8:
		return float64(n)
	case int16:
		return float64(n)
	case int32:
		return float64(n)
	case int64:
		return float64(n)
	case uint:
		return float64(n)
	case uint8:
		return float64(n)
	case uint16:
		return float64(n)
	case uint32:
		return float64(n)
	case uint64:
		return float64(n)
	case float32:
		// The float64 its JSON text decodes to, not its exact value:
		// float32(0.1) is written 0.1.
		f, _ := strconv.ParseFloat(strconv.FormatFloat(float64(n), 'g', -1, 32), 64)
		return f
	case json.Number:
		if f, err := n.Float64(); err == nil {
			return f
		}
		return v
	default:
		return v
	}
}

// Delete removes the document with the given id (no error if absent).
func (c *Collection) Delete(id string) error {
	if c.db.isClosed() {
		return ErrClosed
	}
	c.mu.Lock()
	s, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	if err := c.appendWAL("del", id, stored{}); err != nil {
		c.mu.Unlock()
		return err
	}
	c.removeFromIndexes(id, s)
	delete(c.docs, id)
	fns := c.onChange
	c.mu.Unlock()
	c.notify(fns, OpDelete, id, nil)
	return nil
}

// Has reports whether a document with the given id exists, without reading
// it.
func (c *Collection) Has(id string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.docs[id]
	return ok
}

// Count returns the number of documents in the collection.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }
