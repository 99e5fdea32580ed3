package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Backend kinds. Memory, dir, and replicated stores are peers behind one
// constructor (OpenBackend); Open and OpenMemory remain as the common-case
// shorthands.
const (
	BackendMemory     = "memory"
	BackendDir        = "dir"
	BackendReplicated = "replicated"
)

// Shipper receives the WAL bytes of a write for replication. Ship is called
// with the owning collection's lock held, once frames have been written to
// the local WAL file and while the fsync the sync policy demands for them
// (if any) is running: frames is one or more complete framed lines exactly
// as written, records their count, in a buffer the next write reuses (keep a
// copy, not the slice). The write is acknowledged only after
// both Ship and that fsync have returned nil, so what Ship is handed is
// written, not yet durable, and never acknowledged — a follower may come to
// hold a record its primary then loses to a power failure, which is safe
// because nobody was told the record exists. (Under SyncInterval and
// SyncNever there is no fsync to wait for and frames have always shipped
// ahead of it.) Returning a non-nil error fails the write that produced the
// frames — the record may remain in the local WAL (a phantom the idempotent
// replay tolerates) but the caller is never acknowledged.
//
// Because Ship runs under the collection lock it must not call back into
// the collection; it may block (a synchronous follower ack) but every
// blocked Ship stalls that collection's writers, so implementations bound
// their waits.
type Shipper interface {
	Ship(collection string, frames []byte, records int) error
}

// Backend names where a database lives and how its WAL leaves the machine.
type Backend struct {
	kind    string
	dir     string
	shipper Shipper
}

// Memory is a purely in-memory backend: no WAL, nothing survives the
// process.
func Memory() Backend { return Backend{kind: BackendMemory} }

// Dir is the single-node persistent backend: every collection's WAL lives
// under path and is replayed (and repaired) on open.
func Dir(path string) Backend { return Backend{kind: BackendDir, dir: path} }

// Replicated is the dir backend plus log shipping: every WAL append is
// handed to s for delivery to a follower, alongside its local fsync, before
// the write is acknowledged (whether the ack waits for the follower is the
// shipper's policy, not the store's).
func Replicated(path string, s Shipper) Backend {
	return Backend{kind: BackendReplicated, dir: path, shipper: s}
}

// Kind returns the backend kind (BackendMemory, BackendDir,
// BackendReplicated).
func (b Backend) Kind() string { return b.kind }

// Dir returns the storage directory ("" for memory).
func (b Backend) Dir() string { return b.dir }

// Shipper returns the replication hook (nil unless replicated).
func (b Backend) Shipper() Shipper { return b.shipper }

// OpenBackend opens a database on the given backend. Persistent backends
// replay every collection WAL under the directory, repairing crash damage
// instead of refusing to start (see Open).
func OpenBackend(b Backend, opts ...Option) (*DB, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	switch b.kind {
	case BackendMemory, "":
		return &DB{opts: o, collections: make(map[string]*Collection)}, nil
	case BackendDir, BackendReplicated:
		if b.dir == "" {
			return nil, fmt.Errorf("store: %s backend needs a directory", b.kind)
		}
	default:
		return nil, fmt.Errorf("store: unknown backend kind %q", b.kind)
	}
	if b.kind == BackendReplicated && b.shipper == nil {
		return nil, errors.New("store: replicated backend needs a shipper")
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", b.dir, err)
	}
	db := &DB{dir: b.dir, opts: o, shipper: b.shipper, collections: make(map[string]*Collection)}
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", b.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		collName := strings.TrimSuffix(name, ".jsonl")
		coll, err := db.loadCollection(collName)
		if err != nil {
			return nil, err
		}
		db.collections[collName] = coll
	}
	return db, nil
}

// WALPath returns the on-disk WAL file for a collection inside a store
// directory — the one layout fact replication followers need before the
// store is opened as a DB.
func WALPath(dir, collection string) string {
	return filepath.Join(dir, collection+".jsonl")
}

// ValidCollectionName reports whether name is safe to use as a collection
// (and therefore as a WAL file stem). Replication followers receive names
// over the wire and must refuse anything that could escape the store
// directory.
func ValidCollectionName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}
