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
	truncateAt  int64    // byte offset of a torn final record; -1 = none
	size        int64    // the file's length
}

// scanWAL classifies every line of a WAL file. Structural damage on the
// final record is a torn tail (the write the crash interrupted); structural
// damage earlier, and any semantically invalid record anywhere, is
// quarantined. Acknowledged records are never dropped by either path: a
// torn tail is by definition unacknowledged, and quarantining only removes
// records that could never have been applied.
func scanWAL(data []byte) walReplay {
	rep := walReplay{truncateAt: -1, size: int64(len(data))}
	type rawLine struct {
		start int64
		text  []byte
	}
	var lines []rawLine
	var off int64
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		var next int64
		if nl < 0 {
			line, next = data, off+int64(len(data))
			data = nil
		} else {
			line, next = data[:nl], off+int64(nl)+1
			data = data[nl+1:]
		}
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, rawLine{start: off, text: line})
		}
		off = next
	}
	for i, ln := range lines {
		rec, class := parseWALLine(bytes.TrimSpace(ln.text))
		switch class {
		case lineOK:
			rep.records = append(rep.records, rec)
			rep.goodLines = append(rep.goodLines, ln.text)
			rep.at = append(rep.at, ln.start)
		case lineTorn:
			if i == len(lines)-1 {
				// The interrupted final append: cut it off.
				rep.truncateAt = ln.start
			} else {
				rep.quarantined = append(rep.quarantined, ln.text)
			}
		case lineBad:
			rep.quarantined = append(rep.quarantined, ln.text)
		}
	}
	return rep
}

// recoverWAL applies a replay's repairs to the on-disk file: truncate a
// torn tail in place, or — when records were quarantined — append them to
// the .corrupt sidecar and atomically rewrite the WAL from the good lines.
// It leaves rep's offsets and size those of the repaired file.
func recoverWAL(fs FileSystem, path string, rep *walReplay) error {
	if len(rep.quarantined) > 0 {
		side, err := fs.OpenAppend(path + corruptSuffix)
		if err != nil {
			return fmt.Errorf("store: opening quarantine %s: %w", path+corruptSuffix, err)
		}
		for _, ln := range rep.quarantined {
			if _, err := side.Write(append(ln, '\n')); err != nil {
				side.Close()
				return fmt.Errorf("store: quarantining to %s: %w", path+corruptSuffix, err)
			}
		}
		if err := side.Close(); err != nil {
			return err
		}
		var buf bytes.Buffer
		for i, ln := range rep.goodLines {
			rep.at[i] = int64(buf.Len())
			buf.Write(ln)
			buf.WriteByte('\n')
		}
		tmp := path + ".rewrite.tmp"
		if err := fs.WriteFile(tmp, buf.Bytes()); err != nil {
			return fmt.Errorf("store: rewriting %s: %w", path, err)
		}
		if err := fs.Rename(tmp, path); err != nil {
			return fmt.Errorf("store: swapping rewritten %s: %w", path, err)
		}
		rep.size = int64(buf.Len())
		return nil
	}
	if rep.truncateAt >= 0 {
		if err := fs.Truncate(path, rep.truncateAt); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
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

// walFile is a collection's log file on a persistent database: its append
// handle, opened by the first append, its read handle for cold values,
// opened by the first value to go cold, and its length. Between open and
// close the file is only appended to, so an offset a cold value keeps stays
// true and neither handle is ever swapped. All methods are called with the
// owning collection's lock held.
type walFile struct {
	path     string
	db       *DB
	file     WALFile
	reader   ReadAtFile
	lastSync time.Time
	closed   bool
	// size is the file's length: what replay left, plus every byte a write
	// has put in it since — a failed write's fragment and the newline after
	// it included — so it is where the next write lands.
	size int64
	// failed is set by a failed Write, which may have left part of a line at
	// the end of the file: the next write then starts on a new line, so the
	// fragment is quarantined alone instead of taking an acknowledged record
	// with it. Every reader skips the blank line a clean failure leaves.
	failed bool
}

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
	if w.failed {
		nl, err := w.file.Write([]byte{'\n'})
		w.size += int64(nl)
		if err != nil {
			return 0, fmt.Errorf("store: appending WAL batch: %w", err)
		}
	}
	at := w.size
	written, err := w.file.Write(frames)
	w.size += int64(written)
	if err != nil {
		w.failed = true
		return 0, fmt.Errorf("store: appending WAL batch: %w", err)
	}
	w.failed = false
	w.db.walAppends.Add(int64(n))
	return at, nil
}

// readable reports whether the read handle is open, opening it if not. A
// handle that will not open costs no correctness: values stay hot until a
// later write finds it open.
func (w *walFile) readable() bool {
	if w.reader == nil && !w.closed {
		w.reader, _ = w.db.opts.fs.OpenRead(w.path)
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
	err := w.file.Sync()
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
	if w.file == nil {
		return nil
	}
	var syncErr error
	if w.db.opts.policy != SyncNever {
		syncErr = w.sync()
	}
	err := w.file.Close()
	w.file = nil
	return cmp.Or(err, syncErr)
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

// SnapshotWAL returns the raw on-disk WAL bytes of a collection (nil when
// the collection has no log yet). It reads the file without taking any
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
	return data, nil
}
