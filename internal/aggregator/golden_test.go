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
		{"bench-shape", shape, shapeSites, "03483e3a71384854d3019e8f9518f9d09f9280daa9f87f66d88b1e0c70ec33a0"},
		{"six-versions", wide, wideSites, "8d6e6860f8fe9c2f9f0dbe18785bf5e6cac60b4a6610927fb429f861c408d1ad"},
	} {
		if got := preparedDigest(t, c.test, c.sites); got != c.want {
			t.Errorf("%s: stored digest %s, want %s", c.name, got, c.want)
		}
	}
}
