package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/store"
)

// metaFile is the follower's durable replication position, next to the
// collection WALs it describes.
const metaFile = "repl.json"

// Request body bounds: a frames request is a handful of WAL records, a
// snapshot is a whole store.
const (
	maxFramesBody   = 32 << 20
	maxSnapshotBody = 1 << 30
)

// followerMeta is what survives a follower restart, and it is written only
// where that matters: when an epoch is adopted (before any apply that
// depends on it — Epoch must never lag), after a snapshot, at promotion and
// by Close. It is not written per frames request. A follower that stops
// without Close therefore restarts with a Seq at or behind the data on its
// disk, never ahead of it: every frame it acknowledged was fsynced before
// the position moved in memory. A lagging Seq costs the primary a resend
// or a snapshot, which the idempotent replay absorbs.
type followerMeta struct {
	Epoch    uint64 `json:"epoch"`
	Seq      uint64 `json:"seq"`
	Promoted bool   `json:"promoted,omitempty"`
}

// FollowerConfig configures NewFollower.
type FollowerConfig struct {
	// Dir is the standby store directory (created if needed).
	Dir string
	// FS is the filesystem WAL appends and meta writes go through
	// (OSFileSystem when nil; tests inject FaultFS).
	FS store.FileSystem
	// Registry receives kscope_repl_* follower metrics (optional).
	Registry *obs.Registry
}

// Follower is the warm standby: it accepts replication frames and
// snapshots over HTTP, appends the primary's WAL bytes verbatim to its own
// collection logs, and can be promoted into a live store. All request
// handling is serialized — there is one primary, and ordering is the point.
type Follower struct {
	dir string
	fs  store.FileSystem

	mu       sync.Mutex
	epoch    uint64
	lastSeq  uint64
	promoted bool
	closed   bool
	wals     map[string]store.WALFile

	framesApplied *obs.Counter
	bytesApplied  *obs.Counter
	staleRejects  *obs.Counter
	snapshots     *obs.Counter
	applyErrors   *obs.Counter
	promotions    *obs.Counter
}

// NewFollower opens (or resumes) a follower over dir, restoring its epoch
// and acked sequence from the durable meta file.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("replica: follower needs a directory")
	}
	fs := cfg.FS
	if fs == nil {
		fs = store.OSFileSystem{}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: creating %s: %w", cfg.Dir, err)
	}
	f := &Follower{
		dir:  cfg.Dir,
		fs:   fs,
		wals: make(map[string]store.WALFile),
	}
	if data, err := fs.ReadFile(f.metaPath()); err == nil {
		var meta followerMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return nil, fmt.Errorf("replica: corrupt %s: %w", f.metaPath(), err)
		}
		f.epoch, f.lastSeq, f.promoted = meta.Epoch, meta.Seq, meta.Promoted
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("replica: reading %s: %w", f.metaPath(), err)
	}
	if r := cfg.Registry; r != nil {
		f.framesApplied = r.Counter("kscope_repl_frames_applied")
		f.bytesApplied = r.Counter("kscope_repl_bytes_applied")
		f.staleRejects = r.Counter("kscope_repl_stale_rejects")
		f.snapshots = r.Counter("kscope_repl_snapshots_received")
		f.applyErrors = r.Counter("kscope_repl_apply_errors")
		f.promotions = r.Counter("kscope_repl_failovers_total")
		r.RegisterGauge("kscope_repl_follower_epoch", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.epoch)
		})
		r.RegisterGauge("kscope_repl_follower_acked_seq", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.lastSeq)
		})
	}
	return f, nil
}

func (f *Follower) metaPath() string { return filepath.Join(f.dir, metaFile) }

// Epoch returns the follower's current epoch.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// AckedSeq returns the follower's position: the highest replicated sequence
// number it knows it has durably applied (after a restart without Close,
// possibly less than it has).
func (f *Follower) AckedSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastSeq
}

// saveMetaLocked durably persists the follower position (temp file, atomic
// rename, directory fsync). Called with f.mu held.
func (f *Follower) saveMetaLocked() error {
	data, err := json.Marshal(followerMeta{Epoch: f.epoch, Seq: f.lastSeq, Promoted: f.promoted})
	if err != nil {
		return fmt.Errorf("replica: encoding meta: %w", err)
	}
	tmp := f.metaPath() + ".tmp"
	if err := f.fs.WriteFile(tmp, data); err != nil {
		return fmt.Errorf("replica: writing meta: %w", err)
	}
	if err := f.fs.Rename(tmp, f.metaPath()); err != nil {
		return fmt.Errorf("replica: swapping meta: %w", err)
	}
	return f.fs.SyncDir(f.dir)
}

// ServeHTTP exposes the replication surface: POST PathFrames, POST
// PathSnapshot, GET PathStatus.
func (f *Follower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == PathFrames && r.Method == http.MethodPost:
		f.handleFrames(w, r)
	case r.URL.Path == PathSnapshot && r.Method == http.MethodPost:
		f.handleSnapshot(w, r)
	case r.URL.Path == PathStatus && r.Method == http.MethodGet:
		f.handleStatus(w)
	default:
		http.NotFound(w, r)
	}
}

// statusReply is the JSON body of every replication response.
type statusReply struct {
	Epoch    uint64 `json:"epoch"`
	Acked    uint64 `json:"acked"`
	Promoted bool   `json:"promoted,omitempty"`
}

// replyLocked writes the follower's position; called with f.mu held.
func (f *Follower) replyLocked(w http.ResponseWriter, status int) {
	w.Header().Set(HeaderEpoch, strconv.FormatUint(f.epoch, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(statusReply{Epoch: f.epoch, Acked: f.lastSeq, Promoted: f.promoted})
}

// checkEpochLocked enforces fencing for an incoming request epoch. It
// returns false after replying when the request must be rejected; on an
// epoch higher than ours it durably adopts the new epoch first, so the
// acceptance cannot be forgotten by a crash. Called with f.mu held.
func (f *Follower) checkEpochLocked(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	reqEpoch, err := strconv.ParseUint(r.Header.Get(HeaderEpoch), 10, 64)
	if err != nil {
		http.Error(w, "replica: missing or bad "+HeaderEpoch, http.StatusBadRequest)
		return 0, false
	}
	if f.closed {
		http.Error(w, "replica: follower closed", http.StatusServiceUnavailable)
		return 0, false
	}
	if f.promoted || reqEpoch < f.epoch {
		// A deposed primary: it must stop acking writes. 409 + our epoch
		// is the fence.
		if f.staleRejects != nil {
			f.staleRejects.Inc()
		}
		f.replyLocked(w, http.StatusConflict)
		return 0, false
	}
	if reqEpoch > f.epoch {
		prev := f.epoch
		f.epoch = reqEpoch
		if err := f.saveMetaLocked(); err != nil {
			// Adopting an epoch we could forget after a crash would let a
			// fenced primary back in; refuse instead.
			f.epoch = prev
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return 0, false
		}
	}
	return reqEpoch, true
}

func (f *Follower) handleFrames(w http.ResponseWriter, r *http.Request) {
	// A batch of 100 is ~85 KB, which io.ReadAll's doubling would copy
	// eight times over: size the buffer once from what the request declares
	// (it still grows if the declaration is short of the truth).
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxFramesBody {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxFramesBody))
	body := buf.Bytes()
	if err != nil {
		http.Error(w, "replica: reading frames: "+err.Error(), http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	reqEpoch, ok := f.checkEpochLocked(w, r)
	if !ok {
		return
	}
	frames, err := parseFrames(body)
	if err != nil {
		if f.applyErrors != nil {
			f.applyErrors.Inc()
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, fr := range frames {
		if fr.epoch != reqEpoch {
			if f.applyErrors != nil {
				f.applyErrors.Inc()
			}
			http.Error(w, fmt.Sprintf("replica: frame epoch %d != request epoch %d", fr.epoch, reqEpoch), http.StatusBadRequest)
			return
		}
	}
	if err := f.applyLocked(frames); err != nil {
		if f.applyErrors != nil {
			f.applyErrors.Inc()
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	f.replyLocked(w, http.StatusOK)
}

// applyLocked appends every frame newer than the follower's position to
// the owning collection's WAL — one buffered Write and one fsync per
// touched collection — then advances the position in memory. A failure
// leaves the position unmoved and drops every append handle: the primary
// resends, duplicates replay idempotently, and the reopened handles sync
// the directory again.
//
// A handle's first write starts with a newline. Whatever ended the last
// handle's life — this process's failed append, or the death of an earlier
// process mid-write — may have left a torn line at the end of the file, and
// a frame appended straight after it would become part of that line and be
// thrown away with it by the store's recovery although it was acknowledged.
// On its own line the fragment is quarantined or truncated at promotion
// like any torn record; a blank line is skipped by every reader.
// Called with f.mu held.
func (f *Follower) applyLocked(frames []frame) (err error) {
	var (
		order   []string
		pending = make(map[string]*bytes.Buffer)
		maxSeq  = f.lastSeq
		applied int64
		nbytes  int64
	)
	for _, fr := range frames {
		if fr.seq <= f.lastSeq {
			continue // duplicate delivery
		}
		buf, ok := pending[fr.collection]
		if !ok {
			buf = &bytes.Buffer{}
			pending[fr.collection] = buf
			order = append(order, fr.collection)
			if _, open := f.wals[fr.collection]; !open {
				buf.WriteByte('\n') // a fresh handle starts on a new line
			}
		}
		buf.Write(fr.inner)
		buf.WriteByte('\n')
		applied++
		nbytes += int64(len(fr.inner)) + 1
		if fr.seq > maxSeq {
			maxSeq = fr.seq
		}
	}
	defer func() {
		if err != nil {
			f.closeWALsLocked()
		}
	}()
	opened := false
	for _, name := range order {
		wf, ok := f.wals[name]
		if !ok {
			if wf, err = f.fs.OpenAppend(store.WALPath(f.dir, name)); err != nil {
				return err
			}
			f.wals[name] = wf
			opened = true
		}
		if _, err := wf.Write(pending[name].Bytes()); err != nil {
			return fmt.Errorf("replica: appending %s: %w", name, err)
		}
	}
	if opened {
		// The file may be new: its name must be as durable as its bytes.
		if err := f.fs.SyncDir(f.dir); err != nil {
			return err
		}
	}
	for _, name := range order {
		if err := f.wals[name].Sync(); err != nil {
			return fmt.Errorf("replica: fsync %s: %w", name, err)
		}
	}
	f.lastSeq = maxSeq
	if f.framesApplied != nil {
		f.framesApplied.Add(applied)
		f.bytesApplied.Add(nbytes)
	}
	return nil
}

func (f *Follower) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		http.Error(w, "replica: reading snapshot: "+err.Error(), http.StatusBadRequest)
		return
	}
	watermark, err := strconv.ParseUint(r.Header.Get(HeaderSeq), 10, 64)
	if err != nil {
		http.Error(w, "replica: missing or bad "+HeaderSeq, http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.checkEpochLocked(w, r); !ok {
		return
	}
	sections, err := parseSnapshot(body)
	if err != nil {
		if f.applyErrors != nil {
			f.applyErrors.Inc()
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Replace our logs with the primary's files wholesale. Open handles
	// would keep appending to replaced inodes; drop them first. Each
	// section goes to a temp file renamed over the log, so a write that
	// fails part-way leaves the log it would have replaced as it was; the
	// temp name does not end in .jsonl, so Open ignores a leftover one.
	f.closeWALsLocked()
	for name, wal := range sections {
		path := store.WALPath(f.dir, name)
		tmp := path + ".snap.tmp"
		err := f.fs.WriteFile(tmp, wal)
		if err == nil {
			err = f.fs.Rename(tmp, path)
		}
		if err != nil {
			if f.applyErrors != nil {
				f.applyErrors.Inc()
			}
			http.Error(w, fmt.Sprintf("replica: writing snapshot %s: %v", name, err), http.StatusInternalServerError)
			return
		}
	}
	if err := f.fs.SyncDir(f.dir); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	f.lastSeq = watermark
	if err := f.saveMetaLocked(); err != nil {
		// The watermark jump must stick: a follower that forgot it would
		// restart behind files that already hold the snapshot and ask for
		// it again. Safe for the data (idempotent), but report the failure
		// so the primary does not count the snapshot as taken.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if f.snapshots != nil {
		f.snapshots.Inc()
	}
	f.replyLocked(w, http.StatusOK)
}

func (f *Follower) handleStatus(w http.ResponseWriter) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replyLocked(w, http.StatusOK)
}

// closeWALsLocked flushes and drops every open append handle.
func (f *Follower) closeWALsLocked() {
	for name, wf := range f.wals {
		_ = wf.Sync()
		_ = wf.Close()
		delete(f.wals, name)
	}
}

// Close is the standby's graceful shutdown: it syncs and closes the WAL
// handles and persists the position, so the next NewFollower over the same
// directory resumes exactly where this one stopped and the primary streams
// on without a snapshot. Replication requests that arrive afterwards are
// refused. A follower that is never closed loses nothing it acknowledged
// (see followerMeta).
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.closeWALsLocked()
	if f.promoted {
		return nil // the promoted store owns the directory; promotion saved
	}
	return f.saveMetaLocked()
}

// Promote turns the standby into a live store: the follower durably bumps
// its epoch past every frame it has ever accepted (fencing the old
// primary), stops applying replication traffic, and opens the replicated
// directory through the store's normal replay/repair path. The returned
// epoch is what the promoted node must mint — and what a fenced primary
// will be rejected against.
func (f *Follower) Promote(opts ...store.Option) (*store.DB, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil, f.epoch, fmt.Errorf("replica: already promoted")
	}
	f.closeWALsLocked()
	prevEpoch, prevPromoted := f.epoch, f.promoted
	f.epoch++
	f.promoted = true
	if err := f.saveMetaLocked(); err != nil {
		f.epoch, f.promoted = prevEpoch, prevPromoted
		return nil, f.epoch, fmt.Errorf("replica: persisting promotion: %w", err)
	}
	all := append([]store.Option{store.WithFileSystem(f.fs)}, opts...)
	db, err := store.Open(f.dir, all...)
	if err != nil {
		return nil, f.epoch, fmt.Errorf("replica: opening promoted store: %w", err)
	}
	if f.promotions != nil {
		f.promotions.Inc()
	}
	return db, f.epoch, nil
}
