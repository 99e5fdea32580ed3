package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestTornCASPayloadIsRewritten: a short file under a payload's .cas name
// (a write cut short by a crash or a full disk) is never adopted. PutCAS of
// the full payload rewrites it, so every key reads the whole payload, in
// this process and in the next one over the same directory, and no
// temporary file is left beside it.
func TestTornCASPayloadIsRewritten(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("kaleidoscope page "), 4096) // 73 728 bytes
	p := NewPayload(payload)
	casPath := filepath.Join(dir, casDir, p.hash)
	if err := os.MkdirAll(filepath.Dir(casPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(casPath, payload[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"t/p/left.html", "t/q/left.html"} {
		b, err := OpenBlobStore(dir) // a fresh process each time
		if err != nil {
			t.Fatal(err)
		}
		if err := b.PutCAS(key, p); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("process %d: Get(%s) = %d bytes, want the %d-byte payload", i, key, len(got), len(payload))
		}
	}
	onDisk, err := os.ReadFile(casPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, payload) {
		t.Errorf("%s holds %d bytes, want %d", casPath, len(onDisk), len(payload))
	}
	entries, err := os.ReadDir(filepath.Dir(casPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf(".cas holds %d files, want only the payload", len(entries))
	}
}

// TestRecallFollowsLivePayloads: the memo names only payloads some key
// stores, one input per payload, and forgets a payload with its last key.
func TestRecallFollowsLivePayloads(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		p := NewPayload(bytes.Repeat([]byte("version "), 512))
		b.Remember("in", p)
		if _, ok := b.Recall("in"); ok {
			t.Fatal("Recall hit a payload no key stores")
		}
		for _, key := range []string{"t/a/left.html", "u/a/left.html"} {
			if err := b.PutCAS(key, p); err != nil {
				t.Fatal(err)
			}
		}
		b.Remember("in", p)
		got, ok := b.Recall("in")
		if !ok || got.hash != p.hash || !bytes.Equal(got.data, p.data) {
			t.Fatalf("Recall = %v, %d bytes; want the remembered payload", ok, len(got.data))
		}
		if n := b.Stats().Reused; n != 1 {
			t.Errorf("Reused = %d, want 1", n)
		}
		// A second input naming the same payload takes the first's place.
		b.Remember("in2", p)
		if _, ok := b.Recall("in"); ok {
			t.Error("the first input still recalls after a second named its payload")
		}
		if _, err := b.DeletePrefix("t/"); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Recall("in2"); !ok {
			t.Error("Recall missed while a key still stores the payload")
		}
		if _, err := b.DeletePrefix("u/"); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Recall("in2"); ok {
			t.Error("Recall hit after the payload's last key went")
		}
		if len(b.memo) != 0 {
			t.Errorf("memo holds %d entries with no payload live", len(b.memo))
		}
		if n := b.Stats().Reused; n != 2 {
			t.Errorf("Reused = %d, want 2", n)
		}
	})
}

// TestRecallRefusesADamagedFile: on the directory backend Recall reads the
// payload back from its .cas file and misses when those bytes no longer
// hash to the payload's name.
func TestRecallRefusesADamagedFile(t *testing.T) {
	b, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPayload([]byte("<html>version</html>"))
	if err := b.PutCAS("t/a/left.html", p); err != nil {
		t.Fatal(err)
	}
	b.Remember("in", p)
	if _, ok := b.Recall("in"); !ok {
		t.Fatal("Recall missed a stored payload")
	}
	if err := os.WriteFile(filepath.Join(b.dir, casDir, p.hash), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Recall("in"); ok {
		t.Errorf("Recall returned %q from a damaged file", got.data)
	}
}

// TestMemoNeverOutgrowsTheCAS: under concurrent PutCAS, Remember, Recall
// and deletes the memo holds at most one entry per live payload, and every
// hit is the payload its input was remembered with.
func TestMemoNeverOutgrowsTheCAS(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		payloads := make([]Payload, 4)
		for i := range payloads {
			payloads[i] = NewPayload(bytes.Repeat([]byte{'a' + byte(i)}, 256))
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					p := payloads[(w+i)%len(payloads)]
					input := string(rune('A' + (w+i)%len(payloads)))
					key := filepath.ToSlash(filepath.Join("t", string(rune('a'+w)), "f"))
					if got, ok := b.Recall(input); ok && got.hash != p.hash {
						t.Errorf("Recall(%s) = %s, want %s", input, got.hash, p.hash)
					}
					if err := b.PutCAS(key, p); err != nil {
						t.Error(err)
						return
					}
					b.Remember(input, p)
					if i%7 == 0 {
						_ = b.Delete(key)
					}
				}
			}(w)
		}
		wg.Wait()
		b.mu.RLock()
		defer b.mu.RUnlock()
		if len(b.memo) > len(b.cas) {
			t.Errorf("memo holds %d entries for %d live payloads", len(b.memo), len(b.cas))
		}
		for input, hash := range b.memo {
			if e := b.cas[hash]; e == nil || e.input != input {
				t.Errorf("memo entry %q names %s, which does not name it back", input, hash)
			}
		}
	})
}

// TestPutCASAgainUnderItsOwnKey: storing a payload again under the one key
// that already holds it keeps the payload live: its CAS entry, its memo
// entry and, on disk, its .cas file, and the key's later delete releases
// it exactly once.
func TestPutCASAgainUnderItsOwnKey(t *testing.T) {
	eachBackend(t, func(t *testing.T, b *BlobStore) {
		p := NewPayload(bytes.Repeat([]byte("right "), 512))
		const key = "t/pair-0-1/right.html"
		if err := b.PutCAS(key, p); err != nil {
			t.Fatal(err)
		}
		b.Remember("in", p)
		if err := b.PutCAS(key, p); err != nil {
			t.Fatal(err)
		}
		if n := b.Stats().UniqueBlobs; n != 1 {
			t.Errorf("UniqueBlobs = %d after storing the payload again, want 1", n)
		}
		if _, ok := b.Recall("in"); !ok {
			t.Error("Recall missed after the payload was stored again under its key")
		}
		if b.dir != "" {
			if _, err := os.Stat(filepath.Join(b.dir, casDir, p.hash)); err != nil {
				t.Errorf("the payload's .cas file: %v", err)
			}
		}
		if got, err := b.Get(key); err != nil || !bytes.Equal(got, p.data) {
			t.Errorf("Get(%s) = %d bytes, %v; want the payload", key, len(got), err)
		}
		if err := b.Delete(key); err != nil {
			t.Fatal(err)
		}
		if n := b.Stats().UniqueBlobs; n != 0 || len(b.cas) != 0 || len(b.memo) != 0 {
			t.Errorf("after the delete: UniqueBlobs %d, %d CAS entries, %d memo entries; want none", n, len(b.cas), len(b.memo))
		}
	})
}
