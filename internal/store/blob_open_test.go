package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func etagOf(data []byte) string {
	sum := sha256.Sum256(data)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// readView opens key and returns its validator and bytes, checking that the
// view's size is the byte count.
func readView(t *testing.T, b *BlobStore, key string) (etag string, data []byte) {
	t.Helper()
	v, err := b.Open(key)
	if err != nil {
		t.Fatalf("Open(%s): %v", key, err)
	}
	defer v.Close()
	data, err = io.ReadAll(v.Content)
	if err != nil {
		t.Fatalf("reading %s: %v", key, err)
	}
	if v.Size != int64(len(data)) {
		t.Fatalf("Open(%s).Size = %d, read %d bytes", key, v.Size, len(data))
	}
	return v.ETag, data
}

// age makes every file under dir look long settled, so Open remembers the
// hashes it computes (see racyWindow).
func age(t *testing.T, dir string) {
	t.Helper()
	old := time.Now().Add(-time.Hour)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.Chtimes(path, old, old)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenMatchesGet: on both backends a view reads the bytes Get copies,
// its validator is the payload's SHA-256, equal content under two keys has
// equal validators, and missing, invalid and deleted keys are errors.
func TestOpenMatchesGet(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		left, other := bytes.Repeat([]byte("left"), 5000), []byte("something else")
		for key, data := range map[string][]byte{"t/p/left.html": left, "t/p/right.html": left, "t/p/index.html": other} {
			if err := b.PutCAS(key, NewPayload(data)); err != nil {
				t.Fatal(err)
			}
		}
		for key, want := range map[string][]byte{"t/p/left.html": left, "t/p/right.html": left, "t/p/index.html": other} {
			etag, got := readView(t, b, key)
			copied, err := b.Get(key)
			if err != nil || !bytes.Equal(got, copied) || !bytes.Equal(got, want) {
				t.Errorf("%s: view reads %d bytes, Get %d (%v), want %d", key, len(got), len(copied), err, len(want))
			}
			if etag != etagOf(want) {
				t.Errorf("%s: ETag %s, want the payload's SHA-256 %s", key, etag, etagOf(want))
			}
		}

		if err := b.PutCAS("t/p/left.html", NewPayload(other)); err != nil {
			t.Fatal(err)
		}
		if etag, got := readView(t, b, "t/p/left.html"); etag != etagOf(other) || !bytes.Equal(got, other) {
			t.Errorf("after overwrite: ETag %s over %d bytes, want %s", etag, len(got), etagOf(other))
		}
		if etag, got := readView(t, b, "t/p/right.html"); etag != etagOf(left) || !bytes.Equal(got, left) {
			t.Errorf("the overwritten key's twin changed: ETag %s over %d bytes", etag, len(got))
		}

		if _, err := b.Open("t/p/nope.html"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Open of a missing key: %v, want ErrNotFound", err)
		}
		if _, err := b.Open("t/p"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Open of a key prefix: %v, want ErrNotFound", err)
		}
		if _, err := b.Open("../escape"); !errors.Is(err, ErrInvalidKey) {
			t.Errorf("Open of an escaping key: %v, want ErrInvalidKey", err)
		}
		if n, err := b.DeletePrefix("t/p/index.html"); err != nil || n != 1 {
			t.Fatalf("DeletePrefix(t/p/index.html) = %d, %v", n, err)
		}
		if _, err := b.Open("t/p/index.html"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Open of a deleted key: %v, want ErrNotFound", err)
		}
	})
}

// TestOpenPlainPut: a key stored with Put is served with its payload's
// validator on both backends, and Put keeps no reference to the caller's
// slice.
func TestOpenPlainPut(t *testing.T) {
	data := []byte("stored with plain Put")
	mem := NewBlobStore()
	if err := mem.Put("t/p/a.css", data); err != nil {
		t.Fatal(err)
	}
	want := etagOf(data)
	data[0] = 'S'
	if etag, got := readView(t, mem, "t/p/a.css"); etag != want || string(got) != "stored with plain Put" {
		t.Errorf("memory: ETag %s over %q, want %s over the bytes as Put", etag, got, want)
	}
	data[0] = 's'
	dir, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Put("t/p/a.css", data); err != nil {
		t.Fatal(err)
	}
	if etag, got := readView(t, dir, "t/p/a.css"); etag != etagOf(data) || !bytes.Equal(got, data) {
		t.Errorf("dir: ETag %s over %q, want %s", etag, got, etagOf(data))
	}
}

// TestOpenViewSurvivesOverwriteAndDelete holds the invariant the copy-free
// view rests on: a stored payload is never written again, so a view opened
// before an overwrite or a delete still reads the complete old bytes.
func TestOpenViewSurvivesOverwriteAndDelete(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		old := bytes.Repeat([]byte("old"), 40000)
		for _, put := range []struct {
			name string
			fn   func(string, []byte) error
		}{{"PutCAS", putCAS(b)}, {"Put", b.Put}} {
			if err := put.fn("t/p/left.html", old); err != nil {
				t.Fatal(err)
			}
			v, err := b.Open("t/p/left.html")
			if err != nil {
				t.Fatal(err)
			}
			if err := put.fn("t/p/left.html", bytes.Repeat([]byte("new"), 40000)); err != nil {
				t.Fatal(err)
			}
			if _, err := b.DeletePrefix("t/"); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(v.Content)
			v.Close()
			if err != nil || !bytes.Equal(got, old) {
				t.Errorf("%s: a view opened before overwrite and delete read %d bytes (%v), want the %d old ones",
					put.name, len(got), err, len(old))
			}
		}
	})
}

// TestDirValidatorRemembered: the directory backend hashes a settled file
// once, a file still inside the racy window every time, and a delete forgets.
func TestDirValidatorRemembered(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("page bytes")
	if err := b.PutCAS("t/p/left.html", NewPayload(data)); err != nil {
		t.Fatal(err)
	}
	remembered := func() bool {
		b.vmu.Lock()
		defer b.vmu.Unlock()
		_, ok := b.validators["t/p/left.html"]
		return ok
	}
	// Too young to remember, by the stamp's own granularity: nanosecond
	// stamps within the kernel's tick, whole-second stamps within two seconds.
	now, path := time.Now(), b.keyPath("t/p/left.html")
	for _, young := range []time.Time{
		now.Add(time.Hour),        // the clock stepped back
		now.Truncate(time.Second), // under a second old, on a file system of whole seconds
	} {
		if err := os.Chtimes(path, young, young); err != nil {
			t.Fatal(err)
		}
		if etag, _ := readView(t, b, "t/p/left.html"); etag != etagOf(data) || remembered() {
			t.Fatalf("modified %v ago: ETag %s, remembered=%v; a file this young must be hashed again next time",
				now.Sub(young), etag, remembered())
		}
	}
	// A second is long settled where the stamp shows nanoseconds (if this
	// file system keeps them).
	fine := now.Add(-time.Second).Truncate(time.Millisecond).Add(1)
	if err := os.Chtimes(path, fine, fine); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err == nil && info.ModTime().Equal(fine) {
		if etag, _ := readView(t, b, "t/p/left.html"); etag != etagOf(data) || !remembered() {
			t.Fatalf("modified a second ago to the nanosecond: ETag %s, remembered=%v", etag, remembered())
		}
	}
	age(t, dir)
	if etag, _ := readView(t, b, "t/p/left.html"); etag != etagOf(data) || !remembered() {
		t.Fatalf("settled: ETag %s, remembered=%v", etag, remembered())
	}
	// The remembered validator is what the next open answers with: plant a
	// marker in it and see it come back.
	b.vmu.Lock()
	v := b.validators["t/p/left.html"]
	v.etag = `"remembered"`
	b.validators["t/p/left.html"] = v
	b.vmu.Unlock()
	if etag, _ := readView(t, b, "t/p/left.html"); etag != `"remembered"` {
		t.Errorf("second open of an unchanged file hashed again: ETag %s", etag)
	}
	if n, err := b.DeletePrefix("t/p/left.html"); err != nil || n != 1 {
		t.Fatalf("DeletePrefix(t/p/left.html) = %d, %v", n, err)
	}
	if remembered() {
		t.Error("DeletePrefix left the key's validator behind")
	}
}

// TestDirValidatorFollowsAnotherProcess: a second store on the same
// directory (kscope prepare run again beside a serving node) rewrites a key
// the serving store has a remembered validator for. The next open must
// carry the new bytes' hash, whether the rewrite went through PutCAS or
// plain Put, and the rewritten key's CAS twin must keep its bytes.
func TestDirValidatorFollowsAnotherProcess(t *testing.T) {
	dir := t.TempDir()
	serving, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte("1"), 9000)
	for _, key := range []string{"t/p/left.html", "t/p/right.html"} {
		if err := serving.PutCAS(key, NewPayload(first)); err != nil {
			t.Fatal(err)
		}
	}
	age(t, dir)
	if etag, _ := readView(t, serving, "t/p/left.html"); etag != etagOf(first) {
		t.Fatalf("ETag %s, want %s", etag, etagOf(first))
	}

	other, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Same length every time: size alone must not be what saves us.
	for i, rewrite := range []func(string, []byte) error{putCAS(other), other.Put, putCAS(other)} {
		next := bytes.Repeat([]byte{byte('2' + i)}, len(first))
		if err := rewrite("t/p/left.html", next); err != nil {
			t.Fatal(err)
		}
		age(t, serving.keyPath("t/p/left.html")) // and let the serving store remember this one too
		etag, got := readView(t, serving, "t/p/left.html")
		if etag != etagOf(next) || !bytes.Equal(got, next) {
			t.Fatalf("rewrite %d: ETag %s over %q..., want %s", i, etag, got[:4], etagOf(next))
		}
		if etag, got := readView(t, serving, "t/p/right.html"); etag != etagOf(first) || !bytes.Equal(got, first) {
			t.Fatalf("rewrite %d went through the hard link: the twin reads %q..., ETag %s", i, got[:4], etag)
		}
	}
}

// TestOpenDuringDeletePrefix: concurrent opens while the prefix is deleted
// get the complete payload or ErrNotFound, nothing in between (-race).
func TestOpenDuringDeletePrefix(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		data := bytes.Repeat([]byte("x"), 100000)
		keys := []string{"t/p/index.html", "t/p/left.html", "t/p/right.html"}
		for _, key := range keys {
			if err := b.PutCAS(key, NewPayload(data)); err != nil {
				t.Fatal(err)
			}
		}
		// Every reader reads until its key is gone; the delete starts once
		// each has a complete read behind it.
		var wg, reading sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			reading.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					v, err := b.Open(keys[(g+i)%len(keys)])
					if errors.Is(err, ErrNotFound) {
						return
					}
					if err != nil {
						t.Errorf("Open: %v", err)
						return
					}
					got, err := io.ReadAll(v.Content)
					v.Close()
					if err != nil || !bytes.Equal(got, data) || v.ETag != etagOf(data) {
						t.Errorf("view read %d bytes (%v), ETag %s; want all %d", len(got), err, v.ETag, len(data))
						return
					}
					if i == 0 {
						reading.Done()
					}
				}
			}(g)
		}
		reading.Wait()
		if n, err := b.DeletePrefix("t/"); err != nil || n != len(keys) {
			t.Errorf("DeletePrefix = %d, %v", n, err)
		}
		wg.Wait()
	})
}
