package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/server"
)

// FuzzFoldStateDecode holds the decoder of the one kind of bytes the router
// parses into statistics it then trusts: it never panics; what it accepts
// has no negative count and strictly ascending worker ids, survives
// encode/decode unchanged, and merges with another accepted state to the
// same state in either order (or is refused in both) — and whatever the
// merge produced concludes without panicking. It also holds the fold codec
// to encoding/json both ways: whatever it accepts, json.Unmarshal reads the
// same (viaUnmarshal), and every accepted state encodes to json.Marshal's
// bytes for its document (foldWire). The seed corpus is the property test's
// documents.
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
	// What encoding/json reads and the codec refuses or reads the same:
	// escapes, keys repeated or in capitals, null, numbers that are no small
	// int, bytes after the value, a vote row's counts.
	f.Add([]byte(`{"test_id":"t\u00e9<&>","sessions":2,"workers":["a\"b","café"],"votes":[{"page_id":"p","question_id":"q","counts":{"l\u0065ft":1,"same":2}}]}`), []byte(`{"SESSIONS":1,"sessions":2,"Workers":["a"]}`))
	f.Add([]byte(`{"sessions":1e0,"workers":null,"pages":[{"page_id":"p","tally":{"Left":1.0}}]}`), []byte(`{"sessions":1} {}`))
	f.Add([]byte(`{"votes":[{"page_id":"p","question_id":"q","counts":{"left":-1,"left":2,"":0}},{"page_id":"p","question_id":"r"}]}`), []byte(`{"votes":[{"page_id":"p","question_id":"q","counts":null},{"page_id":"p","question_id":"q","counts":{}}]}`))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, doc := range [][]byte{a, b} {
			if got, err := server.DecodeFoldState(doc); err == nil {
				want, err := viaUnmarshal(doc)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("the fold codec and json.Unmarshal disagree on %q:\n%+v\n%+v (%v)", doc, got, want, err)
				}
			}
		}
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
			if want, _ := json.Marshal(wireOf(fs)); !bytes.Equal(enc, want) {
				t.Fatalf("the fold codec writes\n%s\njson.Marshal writes\n%s", enc, want)
			}
			fs.Votes.Rows(func(q quality.QuestionRef, counts map[questionnaire.Choice]int) {
				for _, n := range counts {
					if n < 0 {
						t.Fatalf("accepted a negative vote count: %s", enc)
					}
				}
			})
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

// viaUnmarshal is the state json.Unmarshal reads from doc: what the fold
// codec reads of json.Marshal's bytes of it, which are the codec's own
// format (TestFoldCodecCoversEveryField).
func viaUnmarshal(doc []byte) (*server.FoldState, error) {
	var w foldWire
	if err := json.Unmarshal(doc, &w); err != nil {
		return nil, err
	}
	wire, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	return server.DecodeFoldState(wire)
}

// foldWire is a fold document as encoding/json writes it by reflection,
// spelled out from the route's contract rather than taken from the encoder:
// the oracle FoldState.MarshalJSON is held to.
type foldWire struct {
	TestID   string              `json:"test_id"`
	Sessions int                 `json:"sessions"`
	Pages    []server.PageResult `json:"pages"`
	Votes    []voteWire          `json:"votes"`
	Workers  []string            `json:"workers"`
	Awaiting []server.FoldWorker `json:"awaiting,omitempty"`
}

type voteWire struct {
	PageID     string                       `json:"page_id"`
	QuestionID string                       `json:"question_id"`
	Counts     map[questionnaire.Choice]int `json:"counts"`
}

func wireOf(fs *server.FoldState) foldWire {
	w := foldWire{TestID: fs.TestID, Sessions: fs.Sessions, Pages: fs.Pages, Votes: []voteWire{}, Workers: fs.Workers, Awaiting: fs.Awaiting}
	fs.Votes.Rows(func(q quality.QuestionRef, counts map[questionnaire.Choice]int) {
		w.Votes = append(w.Votes, voteWire{PageID: q.PageID, QuestionID: q.QuestionID, Counts: counts})
	})
	return w
}
