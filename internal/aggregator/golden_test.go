package aggregator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"kaleidoscope/internal/params"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// preparedDigest prepares one test over fresh in-memory storage and returns
// a SHA-256 over every stored blob: its key, its served ETag and its bytes,
// in key order.
func preparedDigest(t *testing.T, test *params.Test, sites map[string]*webgen.Site) string {
	t.Helper()
	blobs := store.NewBlobStore()
	agg, err := New(store.OpenMemory(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Prepare(test, sites, nil); err != nil {
		t.Fatal(err)
	}
	keys, err := blobs.List("")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, key := range keys {
		data, err := blobs.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		view, err := blobs.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		view.Close()
		for _, field := range [][]byte{[]byte(key), []byte(view.ETag), data} {
			h.Write(binary.AppendUvarint(nil, uint64(len(field))))
			h.Write(field)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPreparedBytesGolden pins every stored byte and ETag of two prepared
// tests — the benchmark-shaped 2-version test and benchInput's 6-version
// test — so a change to how pages are compressed, rendered or stored cannot
// move what participants are served (or invalidate their cached copies) on
// upgrade. A deliberate change to the served bytes updates these digests.
func TestPreparedBytesGolden(t *testing.T) {
	variants := shapeCorpus()
	shape, shapeSites := shapeTest(variants, 0)
	wide, wideSites := benchInput()
	for _, c := range []struct {
		name  string
		test  *params.Test
		sites map[string]*webgen.Site
		want  string
	}{
		{"bench-shape", shape, shapeSites, "1a8fb82b5cb648adbe467828092f776f09940f77fe3ae62cf320569890e23cc4"},
		{"six-versions", wide, wideSites, "48e7528675b77be206a14d77e08e48bd07ec61f5cc350548fb1a90dbeb7e8c86"},
	} {
		if got := preparedDigest(t, c.test, c.sites); got != c.want {
			t.Errorf("%s: stored digest %s, want %s", c.name, got, c.want)
		}
	}
}
