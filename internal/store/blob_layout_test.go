package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestKeyPathRoundTrips: every key is one file in the root, and the file's
// name gives the key back; a name no key is given is no key.
func TestKeyPathRoundTrips(t *testing.T) {
	b := &BlobStore{dir: "root"}
	for _, key := range []string{"t/p/left.html", "a%2Fb/c", "100%/x", "%25", "..x/y", "t.cas/a"} {
		path := b.keyPath(key)
		if filepath.Dir(path) != "root" {
			t.Errorf("keyPath(%q) = %s, not a file in the root", key, path)
		}
		if got, ok := keyOf(filepath.Base(path)); !ok || got != key {
			t.Errorf("keyOf(keyPath(%q)) = %q, %v", key, got, ok)
		}
	}
	for _, name := range []string{casDir, "a%2fb", "a%zz", "%2Fabs", "a%2F..%2Fb", "a%2F%2Fb", "a%2F"} {
		if key, ok := keyOf(name); ok {
			t.Errorf("keyOf(%q) = %q, want no key", name, key)
		}
	}
}

// writeParentLayout lays payloads out in dir as a store with a directory per
// key segment wrote them: .cas/<sha256> and a hard link at each key's nested
// path.
func writeParentLayout(t *testing.T, dir string, keys map[string][]byte) {
	t.Helper()
	for key, data := range keys {
		p := NewPayload(data)
		casPath := filepath.Join(dir, casDir, p.hash)
		if err := os.MkdirAll(filepath.Dir(casPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(casPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, filepath.FromSlash(key))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Link(casPath, path); err != nil {
			t.Fatal(err)
		}
	}
}

// dirState names every file and directory under dir with its inode.
func dirState(t *testing.T, dir string) map[string]uint64 {
	t.Helper()
	state := map[string]uint64{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		id, _ := idOf(info)
		state[path] = id.ino
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestOpenParentLayout: a blob directory laid out with a directory per key
// segment, also one whose upgrade a crash cut short, serves every key with
// its bytes and ETag once opened. A key whose name is too long for one file
// (a test id of 240 bytes) stays where it was and no longer answers, and
// keeps no other key from opening. A second open moves nothing, and
// DeletePrefix removes the keys and sweeps the .cas files only they linked.
func TestOpenParentLayout(t *testing.T) {
	dir := t.TempDir()
	shared, own, kept := []byte("shared page"), bytes.Repeat([]byte("own page "), 5000), []byte("other test")
	keys := map[string][]byte{
		"t/pair-0-1/index.html":    shared,
		"t/pair-0-1/left.html":     own,
		"t/control-same/left.html": shared,
		"u/pair-0-1/left.html":     kept,
		"root-key":                 kept,
	}
	longID, long := strings.Repeat("l", 240), []byte("a test with a long id")
	longKey := longID + "/control-same/index.html"
	writeParentLayout(t, dir, keys)
	writeParentLayout(t, dir, map[string][]byte{longKey: long})
	// An emptied page folder, and a key an interrupted upgrade already moved.
	if err := os.MkdirAll(filepath.Join(dir, "t", "gone", "deeper"), 0o755); err != nil {
		t.Fatal(err)
	}
	moved := (&BlobStore{dir: dir}).keyPath("t/control-same/left.html")
	if err := os.Rename(filepath.Join(dir, "t", "control-same", "left.html"), moved); err != nil {
		t.Fatal(err)
	}

	b, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key, data := range keys {
		if etag, got := readView(t, b, key); etag != etagOf(data) || !bytes.Equal(got, data) {
			t.Errorf("%s: ETag %s over %d bytes, want %s over %d", key, etag, len(got), etagOf(data), len(data))
		}
		if info, err := os.Stat(b.keyPath(key)); err != nil || info.Sys().(*syscall.Stat_t).Nlink < 2 {
			t.Errorf("%s: its file lost its link to .cas: %v", key, err)
		}
	}
	if _, err := b.Open(longKey); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open of the key too long to move: %v, want ErrNotFound", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(longKey))); err != nil || !bytes.Equal(got, long) {
		t.Errorf("the key too long to move no longer holds its bytes where it was: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != casDir && e.Name() != longID {
			t.Errorf("directory %s survived the open", e.Name())
		}
	}
	all, err := b.List("")
	if err != nil || len(all) != len(keys) {
		t.Fatalf("List = %v, %v; want the %d keys", all, err, len(keys))
	}

	before := dirState(t, dir)
	if _, err := OpenBlobStore(dir); err != nil {
		t.Fatal(err)
	}
	after := dirState(t, dir)
	if len(after) != len(before) {
		t.Errorf("a second open changed the directory: %d entries, then %d", len(before), len(after))
	}
	for path, ino := range before {
		if after[path] != ino {
			t.Errorf("a second open moved %s", path)
		}
	}

	if n, err := b.DeletePrefix("t/"); err != nil || n != 3 {
		t.Fatalf("DeletePrefix(t/) = %d, %v; want 3", n, err)
	}
	for _, key := range []string{"u/pair-0-1/left.html", "root-key"} {
		if got, err := b.Get(key); err != nil || !bytes.Equal(got, kept) {
			t.Errorf("%s after deleting t/: %q, %v", key, got, err)
		}
	}
	cas, err := os.ReadDir(filepath.Join(dir, casDir))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{NewPayload(kept).hash, NewPayload(long).hash}
	sort.Strings(want)
	if len(cas) != 2 || cas[0].Name() != want[0] || cas[1].Name() != want[1] {
		t.Errorf(".cas holds %d files after t/ went, want the payloads u/, root-key and the long key link", len(cas))
	}
}

// TestPutAgainNeverHidesTheKey: while one store puts a key again and again,
// another store over the same directory (a serving node beside a re-run
// prepare) opens it in a loop, and always finds it.
func TestPutAgainNeverHidesTheKey(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "t/p/left.html"
	payloads := [][]byte{bytes.Repeat([]byte("a"), 3000), bytes.Repeat([]byte("b"), 3000)}
	if err := writer.Put(key, payloads[0]); err != nil {
		t.Fatal(err)
	}

	done, reading := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			v, err := reader.Open(key)
			if err != nil {
				t.Errorf("open %d during re-puts: %v", i, err)
				return
			}
			v.Close()
			if i == 0 {
				close(reading)
			}
		}
	}()
	<-reading
	for i := 1; i <= 300; i++ {
		if err := writer.PutCAS(key, NewPayload(payloads[i%2])); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if got, err := reader.Get(key); err != nil || !bytes.Equal(got, payloads[0]) {
		t.Errorf("after the re-puts the key reads %d bytes, %v", len(got), err)
	}
	if cas, err := os.ReadDir(filepath.Join(dir, casDir)); err != nil || len(cas) != 1 {
		t.Errorf(".cas holds %d files after the re-puts (%v), want the live payload alone", len(cas), err)
	}
}

// TestLongKeyIsRefusedByName: a key too long for one file name is refused
// with an error naming it, leaves nothing behind, and reads as not found.
func TestLongKeyIsRefusedByName(t *testing.T) {
	b, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("t", 200) + "/" + strings.Repeat("p", 60) // 263 bytes as one name
	err = b.PutCAS(key, NewPayload([]byte("page")))
	if err == nil || !strings.Contains(err.Error(), key) {
		t.Fatalf("PutCAS of a %d-byte name: %v, want an error naming the key", len(key)+2, err)
	}
	if _, err := b.Get(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get: %v, want ErrNotFound", err)
	}
	if _, err := b.Open(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open: %v, want ErrNotFound", err)
	}
	if cas, err := os.ReadDir(filepath.Join(b.dir, casDir)); err != nil || len(cas) != 0 {
		t.Errorf(".cas holds %d files after the refused put (%v)", len(cas), err)
	}
	if b.Stats().UniqueBlobs != 0 {
		t.Errorf("UniqueBlobs = %d after the refused put", b.Stats().UniqueBlobs)
	}
}

// TestConcurrentOpensUpgradeOnce: stores opened at once over one directory in
// the parent layout (a serving node and a prepare run during the upgrade)
// all open, whichever of them moves a file, and every key then serves.
func TestConcurrentOpensUpgradeOnce(t *testing.T) {
	dir := t.TempDir()
	keys := map[string][]byte{}
	for i := range 200 {
		keys[fmt.Sprintf("t%d/pair-0-1/left.html", i)] = []byte(fmt.Sprintf("page %d", i))
	}
	writeParentLayout(t, dir, keys)

	stores := make([]*BlobStore, 4)
	errs := make([]error, len(stores))
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stores[i], errs[i] = OpenBlobStore(dir)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	for key, data := range keys {
		if got, err := stores[0].Get(key); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: %q, %v", key, got, err)
		}
	}
}

// TestSweepKeepsAPutInFlight: a temporary file in .cas, which another
// process's put is about to rename over a key, survives this process's
// sweep, also where it is the payload's only link; one left an hour and more
// by a crashed put is stale.
func TestSweepKeepsAPutInFlight(t *testing.T) {
	b, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("t/p/left.html", []byte("page")); err != nil {
		t.Fatal(err)
	}
	hash := NewPayload([]byte("other")).hash
	inFlight := []string{hash + ".copy123", hash + ".link0123456789abcdef", hash + ".tmp456"}
	for _, name := range inFlight {
		if err := os.WriteFile(filepath.Join(b.dir, casDir, name), []byte("other"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := b.DeletePrefix("t/"); err != nil || n != 1 {
		t.Fatalf("DeletePrefix = %d, %v", n, err)
	}
	cas, err := os.ReadDir(filepath.Join(b.dir, casDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range cas {
		names = append(names, e.Name())
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		st := info.Sys().(*syscall.Stat_t)
		if isStaleTemp(st, time.Now()) || !isStaleTemp(st, time.Now().Add(staleTemp+time.Minute)) {
			t.Errorf("%s: stale now %v, stale past staleTemp %v", e.Name(),
				isStaleTemp(st, time.Now()), isStaleTemp(st, time.Now().Add(staleTemp+time.Minute)))
		}
	}
	if !slices.Equal(names, inFlight) {
		t.Errorf(".cas holds %v after the sweep, want the temporary files %v alone", names, inFlight)
	}
}
