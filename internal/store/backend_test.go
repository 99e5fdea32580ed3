package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// recordingShipper captures every Ship call for inspection.
type recordingShipper struct {
	calls []shipCall
	fail  error
}

type shipCall struct {
	collection string
	frames     string
	records    int
}

func (s *recordingShipper) Ship(collection string, frames []byte, records int) error {
	if s.fail != nil {
		return s.fail
	}
	s.calls = append(s.calls, shipCall{collection, string(frames), records})
	return nil
}

func TestBackendConstructors(t *testing.T) {
	if b := Memory(); b.Kind() != BackendMemory || b.Dir() != "" || b.Shipper() != nil {
		t.Errorf("Memory() = %+v, want empty memory backend", b)
	}
	if b := Dir("/x"); b.Kind() != BackendDir || b.Dir() != "/x" {
		t.Errorf("Dir() = %+v", b)
	}
	sh := &recordingShipper{}
	if b := Replicated("/x", sh); b.Kind() != BackendReplicated || b.Dir() != "/x" || b.Shipper() == nil {
		t.Errorf("Replicated() = %+v", b)
	}
}

func TestOpenBackendValidation(t *testing.T) {
	if _, err := OpenBackend(Replicated("", &recordingShipper{})); err == nil {
		t.Error("replicated backend without a directory must be rejected")
	}
	if _, err := OpenBackend(Replicated(t.TempDir(), nil)); err == nil {
		t.Error("replicated backend without a shipper must be rejected")
	}
	db, err := OpenBackend(Memory())
	if err != nil {
		t.Fatalf("memory backend: %v", err)
	}
	db.Close()
}

// TestShipperReceivesDurableFrames: every Ship call must deliver exactly
// the framed WAL lines that were just written to the local log, in order,
// with a truthful record count — they are about to cross a network.
func TestShipperReceivesDurableFrames(t *testing.T) {
	sh := &recordingShipper{}
	db, err := OpenBackend(Replicated(t.TempDir(), sh), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Collection("uploads")
	if _, err := c.Insert(Document{IDField: "a", "v": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Document{IDField: "b", "v": 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if len(sh.calls) != 3 {
		t.Fatalf("ship calls = %d, want 3", len(sh.calls))
	}
	for i, call := range sh.calls {
		if call.collection != "uploads" || call.records != 1 {
			t.Errorf("call %d = %+v, want 1 uploads record", i, call)
		}
		for _, line := range strings.Split(strings.TrimSpace(call.frames), "\n") {
			if err := VerifyWALLine([]byte(line)); err != nil {
				t.Errorf("call %d shipped unverifiable line %q: %v", i, line, err)
			}
		}
	}

	// A batch ships as one call with the full group.
	docs := []Document{{IDField: "c"}, {IDField: "d"}, {IDField: "e"}}
	if _, errs := c.InsertUniqueBatch(docs); errs != nil {
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	last := sh.calls[len(sh.calls)-1]
	if last.records != 3 {
		t.Errorf("batch ship records = %d, want 3", last.records)
	}
	if lines := strings.Count(last.frames, "\n"); lines != 3 {
		t.Errorf("batch ship lines = %d, want 3", lines)
	}
}

// TestShipFailureFailsWrite: when the shipper rejects, the write must fail
// and must not be visible in memory — the caller was told it did not
// happen. The record is, however, already in the local WAL (it is written
// before it ships, and fsynced meanwhile); a reopen replays it. That phantom
// is the documented price of writing locally first, and it is safe because
// replication delivery is idempotent.
func TestShipFailureFailsWrite(t *testing.T) {
	dir := t.TempDir()
	sh := &recordingShipper{}
	db, err := OpenBackend(Replicated(dir, sh), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("uploads")
	if _, err := c.Insert(Document{IDField: "ok"}); err != nil {
		t.Fatal(err)
	}
	sh.fail = errors.New("follower unreachable")
	if _, err := c.Insert(Document{IDField: "phantom"}); err == nil {
		t.Fatal("insert must fail when the shipper rejects")
	}
	if _, err := c.Get("phantom"); !errors.Is(err, ErrNotFound) {
		t.Error("failed write must not be applied in memory")
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Collection("uploads").Get("phantom"); err != nil {
		t.Errorf("locally durable record must survive reopen: %v", err)
	}
}

// syncProbeFS observes WAL fsyncs — how many ran — and, when syncErr is
// set, fails them. Each one waits until Ship has been entered.
type syncProbeFS struct {
	FileSystem
	shipping chan struct{} // closed by the shipper on entry
	syncErr  error

	mu    sync.Mutex
	syncs int
}

func (fs *syncProbeFS) OpenAppend(path string) (WALFile, error) {
	f, err := fs.FileSystem.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return syncProbeWAL{f, fs}, nil
}

type syncProbeWAL struct {
	WALFile
	fs *syncProbeFS
}

func (w syncProbeWAL) Sync() error {
	<-w.fs.shipping
	w.fs.mu.Lock()
	w.fs.syncs++
	w.fs.mu.Unlock()
	if w.fs.syncErr != nil {
		return w.fs.syncErr
	}
	return w.WALFile.Sync()
}

// enteringShipper announces that Ship has been entered, then fails or not.
type enteringShipper struct {
	entered chan struct{}
	once    sync.Once
	fail    error
}

func (s *enteringShipper) Ship(string, []byte, int) error {
	s.once.Do(func() { close(s.entered) })
	return s.fail
}

// TestShipOverlapsLocalSync: on a replicated backend the local fsync and
// the shipping of one write run at the same time and the write waits for
// both — the fsync in this test does not return until Ship has been entered,
// so a sync-then-ship sequence would hang.
func TestShipOverlapsLocalSync(t *testing.T) {
	entered := make(chan struct{})
	fs := &syncProbeFS{FileSystem: OSFileSystem{}, shipping: entered}
	db, err := OpenBackend(Replicated(t.TempDir(), &enteringShipper{entered: entered}),
		WithSyncPolicy(SyncAlways), WithFileSystem(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Collection("uploads").Insert(Document{IDField: "a"}); err != nil {
		t.Fatal(err)
	}
	if fs.syncs != 1 {
		t.Fatalf("fsyncs = %d, want 1", fs.syncs)
	}
	if got := db.DurabilityStats().Fsyncs; got != 1 {
		t.Errorf("DurabilityStats.Fsyncs = %d, want 1", got)
	}
}

// TestReplicatedWriteNeedsBothSyncAndShip: either half failing fails the
// write and keeps it out of memory; when both fail the local error is the
// one reported; and a policy that owes no fsync still ships.
func TestReplicatedWriteNeedsBothSyncAndShip(t *testing.T) {
	syncErr, shipErr := errors.New("disk says no"), errors.New("follower says no")
	for _, tc := range []struct {
		name     string
		syncErr  error
		shipErr  error
		want     error
		policy   SyncPolicy
		wantSync int
	}{
		{"both succeed", nil, nil, nil, SyncAlways, 1},
		{"sync fails", syncErr, nil, syncErr, SyncAlways, 1},
		{"ship fails", nil, shipErr, shipErr, SyncAlways, 1},
		{"both fail: local error wins", syncErr, shipErr, syncErr, SyncAlways, 1},
		{"no fsync owed, ship fails", nil, shipErr, shipErr, SyncNever, 0},
		{"no fsync owed, ship succeeds", nil, nil, nil, SyncNever, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered := make(chan struct{})
			fs := &syncProbeFS{FileSystem: OSFileSystem{}, shipping: entered, syncErr: tc.syncErr}
			db, err := OpenBackend(Replicated(t.TempDir(), &enteringShipper{entered: entered, fail: tc.shipErr}),
				WithSyncPolicy(tc.policy), WithFileSystem(fs))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			c := db.Collection("uploads")
			_, err = c.Insert(Document{IDField: "a"})
			if !errors.Is(err, tc.want) {
				t.Fatalf("insert error = %v, want %v", err, tc.want)
			}
			select {
			case <-entered:
			default:
				t.Error("frames written to the log were never handed to the shipper")
			}
			if fs.syncs != tc.wantSync {
				t.Errorf("fsyncs = %d, want %d", fs.syncs, tc.wantSync)
			}
			if _, getErr := c.Get("a"); (getErr == nil) != (tc.want == nil) {
				t.Errorf("document visible = %v after insert error %v", getErr == nil, err)
			}
		})
	}
}

// TestDirSyncOnWALCreation: creating a collection's first WAL file must
// fsync the parent directory — otherwise a crash can lose the file's very
// existence — and an injected dir-sync failure must fail the write cleanly
// and recover in place once the disk heals.
func TestDirSyncOnWALCreation(t *testing.T) {
	ffs := NewFaultFS()
	db, err := Open(t.TempDir(), WithFileSystem(ffs), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := ffs.DirSyncs()
	c := db.Collection("fresh")
	if _, err := c.Insert(Document{IDField: "a"}); err != nil {
		t.Fatal(err)
	}
	if ffs.DirSyncs() <= before {
		t.Error("WAL creation did not sync the directory")
	}
	if db.DurabilityStats().DirSyncs == 0 {
		t.Error("DurabilityStats.DirSyncs not accounted")
	}

	ffs.FailDirSync(nil)
	if _, err := db.Collection("fresh2").Insert(Document{IDField: "b"}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("insert into new collection with failing dir sync: err = %v, want ENOSPC", err)
	}
	if !ffs.Tripped() {
		t.Fatal("dir-sync fault never fired")
	}
	ffs.Reset()
	if _, err := db.Collection("fresh2").Insert(Document{IDField: "b"}); err != nil {
		t.Fatalf("insert after dir-sync recovery: %v", err)
	}
}

// TestDirSyncFaultProperty: under randomized dir-sync outages interleaved
// with writes, every acknowledged document must survive a
// crash-reopen, and the store must keep serving once the fault clears.
func TestDirSyncFaultProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ffs := NewFaultFS()
			db, err := Open(dir, WithFileSystem(ffs), WithSyncPolicy(SyncAlways))
			if err != nil {
				t.Fatal(err)
			}
			acked := map[string]bool{}
			for i := 0; i < 120; i++ {
				switch {
				case rng.Intn(10) == 0:
					ffs.FailDirSync(nil)
				case rng.Intn(10) == 0:
					ffs.Reset()
				}
				// Spread writes over a few collections so WAL creation —
				// the dir-sync-sensitive step — keeps recurring.
				c := db.Collection(fmt.Sprintf("c%d", rng.Intn(4)))
				id := fmt.Sprintf("s%d-%d", seed, i)
				if _, err := c.Insert(Document{IDField: id, "i": i}); err == nil {
					acked[c.Name()+"/"+id] = true
				}
			}
			db.Close()

			db2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			for key := range acked {
				parts := strings.SplitN(key, "/", 2)
				if _, err := db2.Collection(parts[0]).Get(parts[1]); err != nil {
					t.Errorf("acknowledged doc %s lost after crash: %v", key, err)
				}
			}
		})
	}
}

// TestRotationTornWriteAtBoundary covers the append-handle boundary: the
// store is closed and reopened (the next append starts a fresh handle on
// the replayed log), then the very next appends tear at byte offsets
// straddling that boundary. Recovery must keep every acknowledged record,
// truncate the torn tail, and replay to exactly the pre-crash live state.
func TestRotationTornWriteAtBoundary(t *testing.T) {
	for _, tornAt := range []int64{0, 1, 7, 64, 200} {
		t.Run(fmt.Sprintf("torn-at-boundary+%d", tornAt), func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS()
			db, err := Open(dir, WithFileSystem(ffs), WithSyncPolicy(SyncAlways))
			if err != nil {
				t.Fatal(err)
			}
			c := db.Collection("uploads")
			var acked []string
			for i := 0; i < 30; i++ {
				id := fmt.Sprintf("pre-%d", i)
				if _, err := c.Insert(Document{IDField: id, "i": i}); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, id)
			}
			// The boundary: the append handle is closed with the store, and
			// the reopened store's first append opens a fresh one.
			db.Close()
			if db, err = Open(dir, WithFileSystem(ffs), WithSyncPolicy(SyncAlways)); err != nil {
				t.Fatal(err)
			}
			c = db.Collection("uploads")
			// Tear the stream tornAt bytes past the reopened log's end.
			ffs.FailAppendsAfter(tornAt, nil, true)
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("post-%d", i)
				if _, err := c.Insert(Document{IDField: id, "i": i, "pad": strings.Repeat("y", 40)}); err != nil {
					break // the crash
				}
				acked = append(acked, id)
			}
			if !ffs.Tripped() {
				t.Fatal("torn-write fault never fired; test is vacuous")
			}
			live := liveDocs(c)

			db2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after torn rotation boundary: %v", err)
			}
			defer db2.Close()
			c2 := db2.Collection("uploads")
			if c2.Count() != len(acked) {
				t.Errorf("recovered %d docs, want %d acknowledged", c2.Count(), len(acked))
			}
			for _, id := range acked {
				if _, err := c2.Get(id); err != nil {
					t.Errorf("acknowledged doc %s lost across rotation: %v", id, err)
				}
			}
			if replayed := liveDocs(c2); !reflect.DeepEqual(live, replayed) {
				t.Error("replayed state differs from live pre-crash state")
			}
		})
	}
}

// TestSnapshotWAL: the replication snapshot source must return the raw
// on-disk segment bytes (every line verifiable), nil for a collection with
// no segment yet, and an error on a memory store.
func TestSnapshotWAL(t *testing.T) {
	db, err := Open(t.TempDir(), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Collection("c")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(Document{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := db.SnapshotWAL("c")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Errorf("snapshot lines = %d, want 5", len(lines))
	}
	for _, line := range lines {
		if err := VerifyWALLine([]byte(line)); err != nil {
			t.Errorf("snapshot line %q unverifiable: %v", line, err)
		}
	}
	if data, err := db.SnapshotWAL("nonexistent"); err != nil || data != nil {
		t.Errorf("missing collection snapshot = (%v, %v), want (nil, nil)", data, err)
	}
	mem := OpenMemory()
	defer mem.Close()
	if _, err := mem.SnapshotWAL("c"); err == nil {
		t.Error("memory store must refuse to snapshot")
	}
}
