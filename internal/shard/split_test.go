package shard

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/server"
)

// codecWorkerID is the worker id the owning shard stores for a session: the
// session codec's reading of it, as a node serves its session list; ok false
// when the codec refuses the session, which every shard does.
func codecWorkerID(session []byte) (id string, ok bool) {
	list, err := server.DecodeSessionList(slices.Concat([]byte("["), session, []byte("]")))
	if err != nil || len(list) != 1 {
		return "", false
	}
	return list[0].WorkerID, true
}

// frameByDecoding is the framing of the batch split the router shipped until
// the one-pass scan replaced it, kept as the differential oracle: the
// array's elements as json.Decoder reads them. It differs from what shipped
// in two places, both bugs (a node disagreed): it refuses bytes after the
// array, and it reads the elements one at a time, as a node does, so that an
// element may nest as deep as a node lets a session nest.
func frameByDecoding(body []byte) (elems []json.RawMessage, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if tok != nil { // null reads as the empty array
		if tok != json.Delim('[') {
			return nil, fmt.Errorf("not an array: %v", tok)
		}
		for dec.More() {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				return nil, err
			}
			elems = append(elems, raw)
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the batch: %v", err)
	}
	if len(elems) > server.MaxBatchSessions {
		return nil, fmt.Errorf("batch of %d sessions", len(elems))
	}
	return elems, nil
}

// scriptSession is a session of the end-to-end script's shape (bench/script.go):
// one real page, one question, one control, two behaviours.
func scriptSession(testID, worker string, i int) server.SessionUpload {
	return server.SessionUpload{
		TestID: testID, WorkerID: worker,
		Demographics: crowd.Demographics{Gender: "female", AgeBand: "25-34", Country: "DE", TechAbility: 1 + i%5},
		Responses: []questionnaire.Response{{
			TestID: testID, WorkerID: worker, PageID: "pair-0-1", QuestionID: "q0",
			Choice:  []questionnaire.Choice{questionnaire.ChoiceLeft, questionnaire.ChoiceRight, questionnaire.ChoiceSame}[i%3],
			Comment: "the left one felt quicker to read", DurationMillis: 4000 + 137*i,
		}},
		Behaviors: []crowd.Behavior{
			{TimeOnTaskMillis: 4000 + 137*i, CreatedTabs: 1 + i%2, ActiveTabSwitches: 2 + i%4},
			{TimeOnTaskMillis: 9000 + 61*i, CreatedTabs: 1, ActiveTabSwitches: 2 + i%3},
		},
		Controls: []quality.ControlOutcome{{PageID: "control-same", Got: questionnaire.ChoiceSame}},
	}
}

// scriptBatch is n script-shaped sessions as one JSON array.
func scriptBatch(tb testing.TB, testID string, n int) []byte {
	tb.Helper()
	batch := make([]server.SessionUpload, n)
	for i := range batch {
		batch[i] = scriptSession(testID, fmt.Sprintf("w%03d-%06x", i, i*7919), i)
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

func gzipped(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// splitCorpus is FuzzBatchSplit's seed corpus, which makes it the split's
// table test on every plain `go test`: one body for each way an element's
// worker id can part from the bytes spelling it (most of them sessions the
// codec refuses), and for each shape of document that is not a batch.
var splitCorpus = []string{
	`[]`, `null`, ` [ ] `, "\n null \t", `[null]`, `{}`, `"str"`, `0`, `[`, `[{]`, ``, ` `,
	`[{"worker_id":"a"},{"worker_id":"b"},{"worker_id":"c"},{"worker_id":"d"}]`,
	// Trailing bytes: the old split read one value and stopped.
	`[{"worker_id":"a"}] x`, `[][]`, `[{"worker_id":"a"}],`, `null null`,
	// Whitespace everywhere.
	" [ { \"test_id\" : \"t\" , \"worker_id\"\t:\r\n\"w 1\" , \"responses\" : [ { \"worker_id\" : \"nested\" } ] } , { } ] ",
	// Escapes, in the key and in the value.
	`[{"worker\u005fid":"escaped-key"},{"worker_id":"esc\u0061ped"},{"worker_id":"q\"uote"},{"worker_id":"back\\slash"},{"\u0077orker_id":"a","worker_id":"b"}]`,
	// Repeated and case-variant keys: encoding/json decodes each in turn.
	`[{"worker_id":"first","worker_id":"last"},{"WORKER_ID":"upper"},{"Worker_Id":"mixed","worker_id":"exact"},{"worker_id":"exact","wORKER_id":"mixed"}]`,
	`[{"worker_id":"kept","worker_id":7},{"worker_id":"kept","worker_id":null},{"worker_id":null,"worker_id":"set"}]`,
	// Unicode folds onto ASCII: U+212A KELVIN SIGN is a 'k' to encoding/json.
	"[{\"wor\u212aer_id\":\"kelvin\"},{\"wor\\u212aer_id\":\"kelvin-escaped\"},{\"worker_id\":\"a\",\"wor\u212aer_id\":\"b\"}]",
	// Bytes >= 0x80: valid UTF-8 is kept, invalid becomes U+FFFD.
	"[{\"worker_id\":\"caf\u00e9\"},{\"worker_id\":\"bad\xffutf8\"},{\"worker_id\":\"\xc3\"}]",
	// Not a string, not an object, not at the top level.
	`[{"worker_id":42},{"worker_id":null},{"worker_id":["a"]},{"worker_id":{"worker_id":"deep"}},{"worker_id":true}]`,
	`[1,"worker_id",null,true,false,-1.5e3,[1,[2,"]"]],["worker_id","x"],{}]`,
	`[{"session":{"worker_id":"inner"},"worker_id":"outer"},{"session":{"worker_id":"inner"}},{"a":[{"worker_id":"x"}],"b":"}"}]`,
	// Look-alikes and the plain-ASCII edge.
	`[{"worker_id ":"space"},{"worker_i":"short"},{"worker_idx":"long"},{"worker_id":""},{"worker_id":"~\u007f "}]`,
	"[{\"worker_id\":\"del\x7f\"},{\"worker_id\":\"{[,]}:\"},{\"k\":\"\\\\\",\"worker_id\":\"after-backslash\"}]",
	// Valid JSON that does not decode as a session still routes somewhere.
	`[{"worker_id":"typed","responses":7},{"responses":"x","worker_id":"late"}]`,
	// An element as deep as a node decodes one, and one level more.
	"[" + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + "]", "[" + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + "]",
}

// FuzzBatchSplit is the gate on the router's one-pass batch split: for any
// body, the split and json.Decoder's framing (frameByDecoding) both refuse or
// both accept; when they accept, the split finds the same elements, byte for
// byte, sends every shard its elements in the caller's order, and routes
// every element the session codec accepts by the worker id the codec
// decodes from it. The same holds for a body read as one headerless session.
// Every body runs in a slice with no spare capacity, so a read outside it is
// a panic.
func FuzzBatchSplit(f *testing.F) {
	for _, seed := range splitCorpus {
		f.Add([]byte(seed))
	}
	f.Add(scriptBatch(f, "fuzz-test", 12))
	ring, err := NewRing([]string{"shard-0", "shard-1", "shard-2"}, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSplit(t, ring, "fuzz-test", slices.Clip(body))
	})
}

func checkSplit(t *testing.T, ring *Ring, testID string, body []byte) {
	t.Helper()
	if want, ok := codecWorkerID(body); ok && string(sessionWorkerID(body)) != want {
		t.Errorf("as one session: routed by worker id %q, the session codec decodes %q", sessionWorkerID(body), want)
	}

	sp := new(batchSplit)
	subs, err := sp.split(ring, testID, body)
	elems, wantErr := frameByDecoding(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("split: %v; json.Decoder: %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if len(sp.elems) != len(elems) {
		t.Fatalf("split found %d elements, json.Decoder %d", len(sp.elems), len(elems))
	}
	wantSubs := make([][][]byte, len(subs))
	for i, e := range sp.elems {
		elem := body[e.start:e.end]
		if !bytes.Equal(elem, elems[i]) {
			t.Errorf("element %d is %q, json.Decoder reads %q", i, elem, elems[i])
		}
		if want, ok := codecWorkerID(elem); ok {
			if _, id := scanElement(body, e.start, 0); string(id) != want {
				t.Errorf("element %d %s: routed by worker id %q, the session codec decodes %q", i, elem, id, want)
			}
			if owner := ring.Owner(SessionKey(testID, want)); e.shard != owner {
				t.Errorf("element %d: owner %d, want %d", i, e.shard, owner)
			}
		}
		wantSubs[e.shard] = append(wantSubs[e.shard], elem)
	}
	for s, sub := range subs {
		var want []byte
		if len(wantSubs[s]) > 0 {
			want = slices.Concat([]byte("["), bytes.Join(wantSubs[s], []byte(",")), []byte("]"))
		}
		if !bytes.Equal(sub.body, want) {
			t.Errorf("shard %d is sent %q, want %q", s, sub.body, want)
		}
		if sub.n != len(wantSubs[s]) {
			t.Errorf("shard %d: %d elements counted, %d indexed", s, sub.n, len(wantSubs[s]))
		}
	}
}

// randomBatch writes a JSON array whose elements are mostly objects built
// from the keys and strings that make a worker id hard to read, nested a few
// levels, with whitespace wherever JSON allows it. Byte-level fuzzing rarely
// keeps a document well-formed for long; this generator always does.
func randomBatch(rng *rand.Rand) []byte {
	keys := []string{`"worker_id"`, `"worker_id"`, `"WORKER_ID"`, `"Worker_id"`, `"worker\u005fid"`, "\"wor\u212aer_id\"", `"wor\u212aer_id"`,
		`"worker_id "`, `"worker_i"`, `"test_id"`, `"responses"`, `"k\\"`, `"é"`, `""`}
	strs := []string{`"a"`, `"w-1"`, `"w 2"`, `""`, `"é"`, "\"\xff\"", `"esc\u0061ped"`, `"q\"uote"`, `"back\\"`, `"}"`, `"]"`, `","`, `"\u007f"`, `"worker_id"`}
	var b []byte
	space := func() {
		for rng.Intn(4) == 0 {
			b = append(b, " \n\t\r"[rng.Intn(4)])
		}
	}
	var value func(depth int, object bool)
	value = func(depth int, object bool) {
		space()
		defer space()
		kind := rng.Intn(7)
		if object {
			kind = 6
		} else if depth > 3 {
			kind %= 5
		}
		switch kind {
		case 0, 1:
			b = append(b, strs[rng.Intn(len(strs))]...)
		case 2:
			b = append(b, []string{"0", "-12.5e+3", "7"}[rng.Intn(3)]...)
		case 3:
			b = append(b, []string{"null", "true", "false"}[rng.Intn(3)]...)
		case 4, 5:
			b = append(b, '[')
			space()
			for i, n := 0, rng.Intn(3); i < n; i++ {
				if i > 0 {
					b = append(b, ',')
				}
				value(depth+1, false)
			}
			b = append(b, ']')
		case 6:
			b = append(b, '{')
			space()
			// Half the elements are sessions the codec reads: the two id
			// keys, each at most once, with string values.
			session, first := object && rng.Intn(2) == 0, rng.Intn(2)
			for i, n := 0, rng.Intn(5); i < n && !(session && i == 2); i++ {
				if i > 0 {
					b = append(b, ',')
				}
				space()
				if session {
					b = append(b, []string{`"worker_id"`, `"test_id"`}[(first+i)%2]...)
				} else {
					b = append(b, keys[rng.Intn(len(keys))]...)
				}
				space()
				b = append(b, ':')
				if session {
					space()
					b = append(b, strs[rng.Intn(len(strs))]...)
					space()
				} else {
					value(depth+1, false)
				}
			}
			b = append(b, '}')
		}
	}
	space()
	b = append(b, '[')
	space()
	for i, n := 0, rng.Intn(7); i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		value(0, rng.Intn(5) > 0)
	}
	b = append(b, ']')
	space()
	return b
}

var splitSeed = flag.Int64("split.seed", 0, "replay one seed of TestSplitRandomBatches")

// TestSplitRandomBatches holds the split to FuzzBatchSplit's properties over
// well-formed documents dense in the hard cases, and checks the generator is
// doing its job: a fair share of the elements are sessions the codec reads
// with a worker id in them.
func TestSplitRandomBatches(t *testing.T) {
	ring, err := NewRing([]string{"shard-0", "shard-1", "shard-2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{*splitSeed}
	if *splitSeed == 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= 3000; s++ {
			seeds = append(seeds, s)
		}
	}
	var elems, identified int
	for _, seed := range seeds {
		body := randomBatch(rand.New(rand.NewSource(seed)))
		if !json.Valid(body) {
			t.Fatalf("seed %d: the generator wrote malformed JSON: %s", seed, body)
		}
		checkSplit(t, ring, "random-test", body)
		if t.Failed() {
			t.Fatalf("seed %d (replay: go test ./internal/shard -run TestSplitRandomBatches -split.seed=%d): %s", seed, seed, body)
		}
		framed, _ := frameByDecoding(body)
		for _, elem := range framed {
			elems++
			if id, ok := codecWorkerID(elem); ok && id != "" {
				identified++
			}
		}
	}
	if *splitSeed == 0 && identified < elems/10 {
		t.Errorf("of %d elements %d are sessions the codec reads with a worker id: the generator has drifted", elems, identified)
	}
}

// TestSplitScriptBatch: on the traffic the router actually carries, the
// split allocates the sub-batch bodies and their bookkeeping, nothing per
// session, and a reused scratch gives the same answer as a fresh one.
func TestSplitScriptBatch(t *testing.T) {
	ring, err := NewRing([]string{"shard-0", "shard-1", "shard-2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := scriptBatch(t, "script-test", 100)
	checkSplit(t, ring, "script-test", body)

	sp := new(batchSplit)
	first, err := sp.split(ring, "script-test", body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.split(ring, "script-test", []byte(`[{"worker_id":"other"}]`)); err != nil {
		t.Fatal(err)
	}
	again, err := sp.split(ring, "script-test", body)
	if err != nil || !reflect.DeepEqual(first, again) {
		t.Errorf("a reused scratch split the same batch differently (%v)", err)
	}
	// Five without the race detector: three sub-batch bodies and two
	// bookkeeping slices.
	if allocs := testing.AllocsPerRun(20, func() { sp.split(ring, "script-test", body) }); allocs > 8 {
		t.Errorf("splitting 100 script-shaped sessions allocates %.0f times: something is allocated per session", allocs)
	}
}

// TestSplitRefusals pins the statuses of the documents the split refuses.
func TestSplitRefusals(t *testing.T) {
	ring, err := NewRing([]string{"shard-0", "shard-1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	over := "[" + strings.Repeat("{},", server.MaxBatchSessions) + "{}]"
	atCap := "[" + strings.Repeat("{},", server.MaxBatchSessions-1) + "{}]"
	for _, tc := range []struct {
		name, body string
		want       error // nil with syntax set: any error naming the syntax
		syntax     bool
	}{
		{"at the cap", atCap, nil, false},
		{"over the cap", over, errBatchTooLong, false},
		{"an object", `{"worker_id":"a"}`, errNotBatch, false},
		{"a string", `"[]"`, errNotBatch, false},
		{"malformed", `[{"worker_id":}]`, nil, true},
		{"trailing bytes", `[] []`, nil, true},
		{"a trailing bracket", `[]]`, nil, true},
		{"over the cap, then a syntax error", over[:len(over)-2] + "]", errBatchTooLong, false},
		{"a syntax error at the cap", atCap[:len(atCap)-2] + "]", nil, true},
		// An element's depth is its own: a node decodes it alone.
		{"an element nested to encoding/json's limit", "[" + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + "]", nil, false},
		{"an element nested past it", "[" + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + "]", nil, true},
		{"1e999 is JSON", `[{"worker_id":"a","x":1e999}]`, nil, false},
		{"a lone surrogate is JSON", `[{"worker_id":"\ud800"}]`, nil, false},
		{"cut inside an escape", `[{"worker_id":"\u12`, nil, true},
		{"a raw control byte", "[{\"worker_id\":\"a\x01b\"}]", nil, true},
	} {
		_, err := new(batchSplit).split(ring, "t", []byte(tc.body))
		if tc.syntax {
			var syntax *json.SyntaxError
			if !errors.As(err, &syntax) || !strings.HasPrefix(err.Error(), "malformed batch: "+syntax.Error()) {
				t.Errorf("%s: %v, want a syntax error", tc.name, err)
			}
		} else if err != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
}

// blanks reads as an endless run of spaces.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestBatchReadStopsAtTheBudget: the router reads a batch body, and
// inflates a gzip one, only as far as it takes to see it is past a node's
// byte budget, then refuses it. The bound is on the bytes consumed, so it
// holds on any host.
func TestBatchReadStopsAtTheBudget(t *testing.T) {
	const budget = server.MaxBatchBytes
	t.Run("plain", func(t *testing.T) {
		body := &io.LimitedReader{R: blanks{}, N: 2 * budget}
		req := httptest.NewRequest(http.MethodPost, batchPath, body)
		req.ContentLength = -1 // undeclared: the read alone must stop
		if _, err := new(batchSplit).read(req); !errors.Is(err, errTooLarge) {
			t.Errorf("a %d-byte body: %v, want errTooLarge", 2*budget, err)
		}
		const readBuf = 32 << 10
		if read := 2*budget - body.N; read > budget+1+readBuf {
			t.Errorf("read %d bytes of the body; the budget is %d, plus one byte and one %d-byte read", read, budget, readBuf)
		}
	})
	t.Run("gzip", func(t *testing.T) {
		// Twice the budget as gzip members of 1 MiB each, which a gzip
		// reader inflates as one stream (RFC 1952 §2.2): one compression,
		// and the compressed offset of every 1 MiB's end is known. The
		// member holding byte budget+1 ends the prefix that inflates past
		// the budget; the inflater may read ahead by up to one member.
		const block = 1 << 20
		member := gzipped(t, bytes.Repeat([]byte{' '}, block))
		wire := bytes.Repeat(member, 2*budget/block)
		prefix := (budget/block + 1) * len(member)
		req := httptest.NewRequest(http.MethodPost, batchPath, bytes.NewReader(wire))
		req.Header.Set("Content-Encoding", "gzip")
		sp := new(batchSplit)
		if _, err := sp.read(req); !errors.Is(err, errTooLarge) {
			t.Errorf("a gzip body inflating to %d bytes: %v, want errTooLarge", 2*budget, err)
		}
		if consumed := len(wire) - sp.src.Len(); consumed > prefix+len(member) {
			t.Errorf("inflated %d of %d compressed bytes; %d inflate past the budget, and a member is %d",
				consumed, len(wire), prefix, len(member))
		}
	})
}
