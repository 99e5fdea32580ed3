package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"kaleidoscope/internal/server"
)

// FuzzFoldStateDecode holds the decoder of the one kind of bytes the router
// parses into statistics it then trusts: it never panics; what it accepts
// has no negative count and strictly ascending worker ids, survives
// encode/decode unchanged, and merges with another accepted state to the
// same state in either order (or is refused in both) — and whatever the
// merge produced concludes without panicking. The seed corpus is the
// property test's documents.
func FuzzFoldStateDecode(f *testing.F) {
	for _, sh := range []*foldShape{prepShape(f, 2, 1), prepShape(f, 3, 2)} {
		for seed := int64(1); seed <= 4; seed++ {
			docs, _, _ := sh.foldDocs(f, sh.crowd(rand.New(rand.NewSource(seed))), 3)
			f.Add(docs[0], docs[1])
			f.Add(docs[2], docs[2])
		}
	}
	f.Add([]byte(`{"test_id":"t","sessions":1,"pages":null,"votes":null,"workers":["a"],"awaiting":[]}`), []byte(`{}`))
	f.Add([]byte(`{"sessions":-1}`), []byte(`{"sessions":2,"workers":["b","a"]}`))
	f.Add([]byte(`{"sessions":2,"workers":["a","b"],"awaiting":[{"id":"b"},{"id":"a"}]}`), []byte(`{"sessions":1,"workers":["a"],"awaiting":[{"id":"c"}]}`))
	f.Add([]byte(`{"votes":[{"page_id":"p","question_id":"q","counts":{"left":-1}}]}`), []byte(`{"pages":[{"tally":{"Left":-1}}]}`))
	// Found by this target: two empty partitions that spell an empty list
	// differently merged to null or [] by the order.
	f.Add([]byte(`{"aaaa":0}`), []byte(`{"workers":[]}`))
	f.Add([]byte(`{}`), []byte(`{"00000000":0,"pAges":[]}`))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		x, errX := server.DecodeFoldState(a)
		y, errY := server.DecodeFoldState(b)
		for _, fs := range []*server.FoldState{x, y} {
			if fs == nil {
				continue
			}
			if fs.Sessions < 0 || len(fs.Workers) > fs.Sessions {
				t.Fatalf("accepted %d workers of %d sessions", len(fs.Workers), fs.Sessions)
			}
			for _, p := range fs.Pages {
				if p.Tally.Left < 0 || p.Tally.Right < 0 || p.Tally.Same < 0 {
					t.Fatalf("accepted a negative tally: %+v", p)
				}
			}
			for i := 1; i < len(fs.Workers); i++ {
				if fs.Workers[i-1] >= fs.Workers[i] {
					t.Fatalf("accepted workers out of order: %q then %q", fs.Workers[i-1], fs.Workers[i])
				}
			}
			passing := map[string]bool{}
			for _, id := range fs.Workers {
				passing[id] = true
			}
			for i, w := range fs.Awaiting {
				if !passing[w.ID] || i > 0 && fs.Awaiting[i-1].ID >= w.ID {
					t.Fatalf("accepted awaiting worker %q: not passing, repeated or out of order", w.ID)
				}
			}
			enc, err := json.Marshal(fs)
			if err != nil {
				t.Fatalf("an accepted state does not encode: %v", err)
			}
			if bytes.Contains(enc, []byte(`":-`)) {
				t.Fatalf("accepted a negative count: %s", enc)
			}
			back, err := server.DecodeFoldState(enc)
			if err != nil || !reflect.DeepEqual(back, fs) {
				t.Fatalf("decode(encode(x)) != x (%v):\n%s\n%+v\n%+v", err, enc, back, fs)
			}
			fs.Conclude()
		}
		if errX != nil || errY != nil {
			return
		}
		x2, _ := server.DecodeFoldState(a)
		y2, _ := server.DecodeFoldState(b)
		errXY, errYX := x.Merge(y2), y.Merge(x2)
		if (errXY == nil) != (errYX == nil) {
			t.Fatalf("merge is refused one way only: %v / %v", errXY, errYX)
		}
		if errXY != nil {
			return
		}
		xy, _ := json.Marshal(x)
		yx, _ := json.Marshal(y)
		if !bytes.Equal(xy, yx) {
			t.Fatalf("merge is not commutative:\n%s\n%s", xy, yx)
		}
		x.Conclude()
	})
}
