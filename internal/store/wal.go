package store

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"time"
)

// WAL framing. Every record written since the durability rework is one
// line of the form
//
//	#w1 <crc32-ieee hex8> <json>
//
// where the checksum covers the JSON payload. Lines that start with '{'
// are legacy unframed records from older stores and are replayed without
// verification. Framing is what lets recovery tell a torn final record
// (crash mid-append — truncate it) from mid-file corruption (bit rot or a
// foreign writer — quarantine it to a .corrupt sidecar) without ever
// refusing to open the store. appendRecord (record.go) is the one writer of
// such lines.
const frameMagic = "#w1"

// corruptSuffix names the quarantine sidecar next to a collection's WAL.
const corruptSuffix = ".corrupt"

// lineClass is the verdict on one WAL line.
type lineClass int

const (
	lineOK   lineClass = iota
	lineTorn           // structural damage: bad frame, bad checksum, bad JSON
	lineBad            // well-formed but semantically invalid (unknown op, ...)
)

// parseWALLine decodes one non-blank WAL line, framed or legacy.
func parseWALLine(line []byte) (walRecord, lineClass) {
	var rec walRecord
	payload := line
	if bytes.HasPrefix(line, []byte(frameMagic+" ")) {
		rest := line[len(frameMagic)+1:]
		if len(rest) < 10 || rest[8] != ' ' {
			return rec, lineTorn
		}
		want, err := strconv.ParseUint(string(rest[:8]), 16, 32)
		if err != nil {
			return rec, lineTorn
		}
		payload = rest[9:]
		if crc32.ChecksumIEEE(payload) != uint32(want) {
			return rec, lineTorn
		}
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, lineTorn
	}
	switch rec.Op {
	case "put":
		if rec.ID == "" || rec.Doc == nil {
			return rec, lineBad
		}
	case "del":
		if rec.ID == "" {
			return rec, lineBad
		}
	default:
		return rec, lineBad
	}
	return rec, lineOK
}

// walReplay is the outcome of scanning one collection's log.
type walReplay struct {
	records     []walRecord
	goodLines   [][]byte // verbatim good lines, for rewrites
	at          []int64  // the file offset of each good line
	quarantined [][]byte // semantically bad or mid-file-corrupt lines
	truncateAt  int64    // where to cut the file: a torn final record or a zero tail; -1 = none
	torn        bool     // the cut removes a torn final record
	size        int64    // the file's length; the repaired log's after recoverWAL
}

// scanWAL classifies every line of a WAL file. Structural damage on the
// final record is a torn tail (the write the crash interrupted); structural
// damage earlier, and any semantically invalid record anywhere, is
// quarantined. Acknowledged records are never dropped by either path: a
// torn tail is by definition unacknowledged, and quarantining only removes
// records that could never have been applied. The zeros an append handle
// keeps ahead of the log's end (see OSFileSystem.OpenAppend) are no line:
// they are cut as a torn tail is, and a record torn inside them is the
// torn tail.
func scanWAL(data []byte) walReplay {
	rep := walReplay{truncateAt: -1, size: int64(len(data))}
	if data = TrimZeroTail(data); int64(len(data)) < rep.size {
		rep.truncateAt = int64(len(data))
	}
	var torn []byte // the last line so far, when structurally damaged
	var tornAt int64
	for off := int64(0); len(data) > 0; {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		start := off
		off, data = off+int64(len(data)-len(rest)), rest
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if torn != nil { // a line follows it: no torn tail
			rep.quarantined, torn = append(rep.quarantined, torn), nil
		}
		switch rec, class := parseWALLine(bytes.TrimSpace(line)); class {
		case lineOK:
			rep.records = append(rep.records, rec)
			rep.goodLines = append(rep.goodLines, line)
			rep.at = append(rep.at, start)
		case lineTorn:
			torn, tornAt = line, start
		case lineBad:
			rep.quarantined = append(rep.quarantined, line)
		}
	}
	if torn != nil { // the interrupted final append: cut it off
		rep.truncateAt, rep.torn = tornAt, true
	}
	return rep
}

// recoverWAL applies a replay's repairs to the on-disk log: truncate a torn
// tail in place, or — when records were quarantined — append them to the
// .corrupt sidecar, fsync it, and replace the log with its good lines
// (logDir.replace). The sidecar is synced before the replacement lands, so
// a power cut never leaves the quarantined lines out of both files. It
// leaves rep's offsets and size those of the repaired file.
func recoverWAL(dir logDir, name string, rep *walReplay) error {
	path := WALPath(dir.path, name)
	if len(rep.quarantined) > 0 {
		side, err := dir.fs.OpenAppend(path + corruptSuffix)
		if err == nil {
			_, err = side.Write(append(bytes.Join(rep.quarantined, []byte{'\n'}), '\n'))
			err = cmp.Or(err, side.Sync(), side.Close())
		}
		if err != nil {
			return fmt.Errorf("store: quarantining to %s: %w", path+corruptSuffix, err)
		}
		var log []byte
		for i, ln := range rep.goodLines {
			rep.at[i] = int64(len(log))
			log = append(append(log, ln...), '\n')
		}
		if err := dir.replace(map[string][]byte{name + logSuffix: log}, nil); err != nil {
			return fmt.Errorf("store: rewriting %s: %w", path, err)
		}
		rep.size = int64(len(log))
		return nil
	}
	if rep.truncateAt >= 0 {
		if err := dir.fs.Truncate(path, rep.truncateAt); err != nil {
			return fmt.Errorf("store: cutting the tail of %s: %w", path, err)
		}
		rep.size = rep.truncateAt
	}
	return nil
}

// SyncPolicy selects when WAL appends reach stable storage, and so what a
// nil error from a write promises. Under every policy the record has been
// written to the file before the caller sees nil, so a crash of the process
// alone loses nothing; the policies differ in what a power cut or a kernel
// crash may take. On a Replicated store the Shipper has a say as well:
// replica.Primary returns only once the follower has fsynced the frames, so
// an acknowledged write is durable on the follower whatever the local
// policy.
type SyncPolicy int

const (
	// SyncInterval group-commits, and is the default. An append is fsynced
	// only when it comes at least the interval (WithSyncInterval, 100ms)
	// after the previous fsync, or after the log file was opened; no timer
	// flushes afterwards, and Close fsyncs. A power cut can therefore lose
	// every write acknowledged since the last fsync, and once writes pause
	// that window has no time bound: it stays open until the next append
	// past the interval, or Close.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append (a batch is one append): an
	// acknowledged write is on stable storage before the caller sees nil.
	SyncAlways
	// SyncNever leaves flushing to the OS and Close: a power cut can lose
	// any write the kernel had not yet written back.
	SyncNever
)

// walFile is a collection's log file on a persistent database: its
// appender, its read handle for cold values (opened by the first value to
// go cold) and the time of its last fsync. Between open and close the log
// is only appended to, at its end whatever zeros lie past it, and neither
// handle is swapped, not even after a failed write: an offset a cold value
// keeps stays true. All methods are called with the collection's lock held.
type walFile struct {
	log      appender
	db       *DB
	reader   ReadAtFile
	lastSync time.Time
	closed   bool
}

// newWAL returns the walFile of collection name, its log size bytes long.
func (db *DB) newWAL(name string, size int64) *walFile {
	return &walFile{log: appender{dir: db.logDir(), path: db.collectionPath(name), size: size}, db: db}
}

// logDir is the database's directory of collection logs, counting its
// fsyncs in DirSyncs.
func (db *DB) logDir() logDir { return logDir{fs: db.opts.fs, path: db.dir, syncs: &db.dirSyncs} }

// write appends n pre-framed records in one Write — the group-commit
// primitive behind every append (singles are a group of one) and
// Collection.InsertUniqueBatch — and returns the file offset they start
// at. Making them durable is a separate step (syncDue, sync) so that a
// replicated collection can run it while the frames are on their way to the
// follower.
func (w *walFile) write(frames []byte, n int) (int64, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if w.log.file == nil {
		w.lastSync = time.Now() // the sync interval runs from the open
	}
	at, err := w.log.write(frames)
	if err != nil {
		return 0, fmt.Errorf("store: appending WAL batch: %w", err)
	}
	w.db.walAppends.Add(int64(n))
	return at, nil
}

// readable reports whether the read handle is open, opening it if not. A
// handle that will not open costs no correctness: values stay hot until a
// later write finds it open.
func (w *walFile) readable() bool {
	if w.reader == nil && !w.closed {
		w.reader, _ = w.db.opts.fs.OpenRead(w.log.path)
	}
	return w.reader != nil
}

// syncDue reports whether the sync policy demands an fsync for the group
// just written: always under SyncAlways (a batch of N still costs one
// fsync), never under SyncNever, and under SyncInterval once the interval
// has passed since the last one (the group counts as one append against
// the interval clock).
func (w *walFile) syncDue() bool {
	switch w.db.opts.policy {
	case SyncAlways:
		return true
	case SyncNever:
		return false
	default:
		return time.Since(w.lastSync) >= w.db.opts.interval
	}
}

func (w *walFile) sync() error {
	start := time.Now()
	err := w.log.sync()
	w.db.fsyncs.Add(1)
	w.db.fsyncNanos.Add(time.Since(start).Nanoseconds())
	w.lastSync = time.Now()
	if err != nil {
		return fmt.Errorf("store: fsync WAL: %w", err)
	}
	return nil
}

// close flushes (except under SyncNever) and closes both handles.
func (w *walFile) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.reader != nil {
		w.reader.Close()
		w.reader = nil
	}
	if w.log.file == nil {
		return nil
	}
	var syncErr error
	if w.db.opts.policy != SyncNever {
		syncErr = w.sync()
	}
	return cmp.Or(w.log.close(), syncErr)
}

// DurabilityStats is a snapshot of the store's crash-safety counters,
// exported as gauges on the serving path's /metrics.
type DurabilityStats struct {
	// RecoveredTails counts torn final records truncated during Open.
	RecoveredTails int64
	// QuarantinedRecords counts corrupt or invalid records moved to
	// .corrupt sidecars during Open.
	QuarantinedRecords int64
	// WALAppends counts records appended to collection logs.
	WALAppends int64
	// Fsyncs counts WAL fsync calls; FsyncNanos is their total duration.
	Fsyncs     int64
	FsyncNanos int64
	// DirSyncs counts directory fsyncs (WAL creation and recovery
	// renames).
	DirSyncs int64
	// ColdReads counts values read back from a WAL (see stored.go).
	ColdReads int64
}

// DurabilityStats returns the database's durability counters.
func (db *DB) DurabilityStats() DurabilityStats {
	return DurabilityStats{
		RecoveredTails:     db.recoveredTails.Load(),
		QuarantinedRecords: db.quarantined.Load(),
		WALAppends:         db.walAppends.Load(),
		Fsyncs:             db.fsyncs.Load(),
		FsyncNanos:         db.fsyncNanos.Load(),
		DirSyncs:           db.dirSyncs.Load(),
		ColdReads:          db.coldReads.Load(),
	}
}

// VerifyWALLine checks that line is exactly one structurally and
// semantically valid framed WAL record. Replication followers run every
// shipped frame through this before appending it to their own log: bytes a
// primary never wrote (or that chaos mangled in flight) must not reach a
// follower's disk. A line in the shape appendRecord writes is checked by its
// checksum and one scan of its payload; any other line is decoded as replay
// would decode it, so the verdict is parseWALLine's either way.
func VerifyWALLine(line []byte) error {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 {
		return fmt.Errorf("store: empty WAL line")
	}
	if bytes.IndexByte(trimmed, '\n') >= 0 {
		return fmt.Errorf("store: WAL line contains newline")
	}
	if !bytes.HasPrefix(trimmed, []byte(frameMagic+" ")) {
		return fmt.Errorf("store: WAL line missing %s frame", frameMagic)
	}
	if scanFramed(trimmed[len(frameMagic)+1:]) {
		return nil
	}
	switch _, class := parseWALLine(trimmed); class {
	case lineOK:
		return nil
	case lineTorn:
		return fmt.Errorf("store: WAL line fails frame checksum or decode")
	default:
		return fmt.Errorf("store: WAL line is semantically invalid")
	}
}

// SnapshotWAL returns the raw on-disk WAL bytes of a collection, without the
// zeros its append handle keeps ahead of them (nil when the collection has
// no log yet). It reads the file without taking any
// collection lock, so a writer may be appending concurrently: the result
// can end in a torn final line, and may include records newer than any
// sequence number the caller observed before the read. Both are safe for
// replication catch-up — a torn tail is skipped by scanWAL, and newer
// records are redelivered by the tail stream and applied idempotently.
func (db *DB) SnapshotWAL(collection string) ([]byte, error) {
	if db.dir == "" {
		return nil, errors.New("store: memory database has no WAL to snapshot")
	}
	data, err := db.opts.fs.ReadFile(db.collectionPath(collection))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: snapshotting WAL %s: %w", collection, err)
	}
	return TrimZeroTail(data), nil
}
