package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/jsonscan"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
)

// scriptSession is a session of the end-to-end script's shape
// (bench/script.go): one real page, one question, one control, two
// behaviours, a short free-text comment.
func scriptSession(worker string, i int) SessionUpload {
	return SessionUpload{
		TestID: "srv-test", WorkerID: worker,
		Demographics: crowd.Demographics{Gender: "female", AgeBand: "25-34", Country: "DE", TechAbility: 1 + i%5},
		Responses: []questionnaire.Response{{
			TestID: "srv-test", WorkerID: worker, PageID: "pair-0-1", QuestionID: "q0",
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

// elementCorpus is FuzzDecodeSession's seed corpus, and so the decoder's
// table test on every plain `go test`: the elements of FuzzBatchSplit's
// corpus (internal/shard) — each way a key or a value can part from the
// bytes spelling it — and what only a full decode can get wrong: numbers at
// the edge of an int, null and repeated arrays, strings encoding/json
// rewrites, documents cut short.
var elementCorpus = []string{
	`{}`, `null`, ` { } `, "\n null \t", `[]`, `[null]`, `"str"`, `0`, `-1.5e3`, `true`, `false`, `{`, `{]`, ``, ` `,
	`nul`, `nullx`, `12x`, `{}x`, `{} {}`, `tru`, `"open`, `-`, `1.`, `1e+`, `01`, `{"a":01}`,
	`{"worker_id":"a"}`, `{"worker_id":"a"},`, `{"worker_id":"a"}]`,
	" { \"test_id\" : \"t\" , \"worker_id\"\t:\r\n\"w 1\" , \"responses\" : [ { \"worker_id\" : \"nested\" } ] } ",
	// Escapes, in the key and in the value.
	`{"worker\u005fid":"escaped-key"}`, `{"worker_id":"esc\u0061ped"}`, `{"worker_id":"q\"uote"}`, `{"worker_id":"back\\slash"}`, `{"\u0077orker_id":"a","worker_id":"b"}`,
	`{"worker_id":"\ud83d\ude00"}`, `{"worker_id":"\ud83d"}`, `{"worker_id":"\ude00\ud83d"}`, `{"worker_id":"\x"}`, `{"worker_id":"\u12g4"}`, `{"worker_id":"\u12`, `{"worker_id":"\u12g`, `{"worker_id":"\`, "{\"worker_id\":\"\x1f",
	"{\"worker_id\":\"raw\x01control\"}", "{\"worker_id\":\"tab\there\"}", `{"worker_id":"<a&b>"}`, `{"worker_id":"a&b"}`, `{"worker_id":"a<b"}`, `{"worker_id":"a>b"}`, "{\"worker_id\":\"line\u2028sep\"}", `{"worker_id":"\/\b\f\n\r\t"}`,
	// Repeated and case-variant keys: encoding/json decodes each in turn.
	`{"worker_id":"first","worker_id":"last"}`, `{"WORKER_ID":"upper"}`, `{"Worker_Id":"mixed","worker_id":"exact"}`, `{"worker_id":"exact","wORKER_id":"mixed"}`,
	`{"worker_id":"kept","worker_id":7}`, `{"worker_id":"kept","worker_id":null}`, `{"worker_id":null,"worker_id":"set"}`,
	`{"responses":[{"comment":"a","page_id":"p"}],"responses":[{"page_id":"q"}]}`, `{"demographics":{"gender":"f"},"demographics":{"country":"DE"}}`,
	`{"behaviors":[{"TimeOnTaskMillis":5,"timeontaskmillis":6}]}`, `{"behaviors":[{"timeOnTaskMillis":5}]}`,
	// Unicode folds onto ASCII: U+212A KELVIN SIGN is a 'k' to encoding/json.
	"{\"wor\u212aer_id\":\"kelvin\"}", `{"wor\u212aer_id":"kelvin-escaped"}`, "{\"worker_id\":\"a\",\"wor\u212aer_id\":\"b\"}",
	// Bytes >= 0x80: valid UTF-8 is kept, invalid becomes U+FFFD.
	"{\"worker_id\":\"caf\u00e9\"}", "{\"worker_id\":\"bad\xffutf8\"}", "{\"worker_id\":\"\xc3\"}", "{\"caf\u00e9\":1,\"worker_id\":\"w\"}",
	`{"responses":[{"comment":"she said \"quicker\" 👍 — naïve"}]}`,
	// Not a string, not an object, not at the top level.
	`{"worker_id":42}`, `{"worker_id":null}`, `{"worker_id":["a"]}`, `{"worker_id":{"worker_id":"deep"}}`, `{"worker_id":true}`,
	`[1,"worker_id",null,true,false,-1.5e3,[1,[2,"]"]],["worker_id","x"],{}]`,
	`{"session":{"worker_id":"inner"},"worker_id":"outer"}`, `{"a":[{"worker_id":"x"}],"b":"}"}`, `{"extra":{"a":[1,2,{"b":null}]},"worker_id":"w"}`,
	// Look-alikes and the plain-ASCII edge.
	`{"worker_id ":"space"}`, `{"worker_i":"short"}`, `{"worker_idx":"long"}`, `{"worker_id":""}`, `{"worker_id":"~\u007f "}`, "{\"worker_id\":\"del\x7f\"}", "{\"del\x7f\":1}",
	// Arrays: null, empty, absent, of the wrong thing.
	`{"responses":null,"behaviors":[],"controls":[{}]}`, `{"responses":[null]}`, `{"responses":{}}`, `{"responses":[[]]}`, `{"responses":[{}],}`, `{"responses":[{},]}`, `{"responses":[,{}]}`, `{"responses":[{} {}]}`,
	`{"behaviors":[]}`, `{"responses":[],"controls":[ ]}`, `{"controls":[{"page_id":"c","expected":"left","got":"same"}]}`, `{"demographics":null}`, `{"demographics":[]}`,
	// Integers: the fast path's edge, an int's edge, and what is not one.
	`{"demographics":{"tech_ability":-0}}`, `{"demographics":{"tech_ability":01}}`, `{"demographics":{"tech_ability":-01}}`, `{"demographics":{"tech_ability":00}}`, `{"demographics":{"tech_ability":7.}}`, `{"demographics":{"tech_ability":7x}}`, `{"demographics":{"tech_ability":-7}}`, `{"demographics":{"tech_ability":1.0}}`, `{"demographics":{"tech_ability":1e2}}`, `{"demographics":{"tech_ability":1E2}}`,
	`{"demographics":{"tech_ability":999999999999999999}}`, `{"demographics":{"tech_ability":1000000000000000000}}`,
	`{"demographics":{"tech_ability":9223372036854775807}}`, `{"demographics":{"tech_ability":9223372036854775808}}`, `{"demographics":{"tech_ability":-9223372036854775808}}`,
	`{"demographics":{"tech_ability":"3"}}`, `{"demographics":{"tech_ability":null}}`, `{"demographics":{"tech_ability":-}}`, `{"demographics":{"tech_ability":+1}}`, `{"demographics":{"tech_ability":1}`,
	// Grammar.
	`{,}`, `{"a"}`, `{"a":}`, `{"worker_id":"a",}`, `{"worker_id" "a"}`, `{"worker_id":"a" "test_id":"t"}`, `{worker_id:"a"}`, `{'worker_id':'a'}`, `{"worker_id":"a"`, `{"worker_id":tru}`, `{"worker_id":nul`,
}

// staleUpload is an upload a previous element has been decoded into: every
// field set, spare capacity full of someone else's answers.
func staleUpload() SessionUpload {
	u := SessionUpload{
		TestID: "stale", WorkerID: "stale", Demographics: crowd.Demographics{Gender: "stale", AgeBand: "stale", Country: "stale", TechAbility: 9},
		Responses: make([]questionnaire.Response, 4), Behaviors: make([]crowd.Behavior, 4), Controls: make([]quality.ControlOutcome, 4),
	}
	for i := range u.Responses {
		u.Responses[i] = questionnaire.Response{TestID: "stale", WorkerID: "stale", PageID: "stale", QuestionID: "stale", Choice: "stale", Comment: "stale", DurationMillis: 9}
		u.Behaviors[i] = crowd.Behavior{TimeOnTaskMillis: 9, CreatedTabs: 9, ActiveTabSwitches: 9}
		u.Controls[i] = quality.ControlOutcome{PageID: "stale", Expected: "stale", Got: "stale"}
	}
	u.Responses, u.Behaviors, u.Controls = u.Responses[:2], u.Behaviors[:2], u.Controls[:2]
	return u
}

// checkDecodeSession holds decodeSession and appendSession to encoding/json
// on one input: the oracle is json.Decoder reading one value off the front
// of b into a fresh struct, which is what the batch endpoint did per element
// until this codec (and json.Unmarshal of exactly the value's bytes).
func checkDecodeSession(t *testing.T, b []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	var want SessionUpload
	wantErr := dec.Decode(&want)

	got := staleUpload()
	n, err := decodeSession(b, &got)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("decodeSession: %v; encoding/json: %v", err, wantErr)
	}
	if cut, wantCut := err == errCutShort, wantErr == io.EOF || wantErr == io.ErrUnexpectedEOF; cut != wantCut {
		t.Fatalf("decodeSession: %v; encoding/json: %v: they disagree on whether more input could help", err, wantErr)
	}
	if err != nil {
		return
	}
	if wantEnd := int(dec.InputOffset()); n != wantEnd {
		t.Errorf("the value ends at %d, decodeSession says %d", wantEnd, n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decodeSession: %#v\nencoding/json: %#v", got, want)
	}
	var unused SessionUpload
	if _, err := decodeSession(b, &unused); err != nil || !reflect.DeepEqual(unused, want) {
		t.Errorf("decodeSession into a zero upload: %v, %#v\nencoding/json: %#v", err, unused, want)
	}
	var alone SessionUpload
	if err := json.Unmarshal(b[:n], &alone); err != nil || !reflect.DeepEqual(got, alone) {
		t.Errorf("json.Unmarshal of the value alone: %v, %#v\ndecodeSession: %#v", err, alone, got)
	}
	if stored, wantStored := appendSession(nil, &got), mustMarshal(t, &want); !bytes.Equal(stored, wantStored) {
		t.Errorf("appendSession: %s\njson.Marshal:  %s", stored, wantStored)
	}
	// An object cut anywhere is cut short, never malformed: the batch
	// window reads on for the first and answers 400 for the second.
	if start := jsonscan.SkipSpace(b, 0); b[start] == '{' {
		var scratch SessionUpload
		for k := start; k < n; k++ {
			if _, err := decodeSession(b[:k], &scratch); err != errCutShort {
				t.Fatalf("cut to %d bytes %q: %v, want errCutShort", k, b[:k], err)
			}
		}
	}
}

// FuzzDecodeSession is the gate on the session codec: for any bytes,
// decodeSession into a used upload and encoding/json into a fresh one agree
// on error or not and on whether more input could change that; when they
// accept, on the value, on where it ends, and appendSession writes
// json.Marshal's bytes. The decoder does not recover from an index out of
// range, so reading outside b is a panic.
func FuzzDecodeSession(f *testing.F) {
	for _, seed := range elementCorpus {
		f.Add([]byte(seed))
	}
	for i := 0; i < 3; i++ {
		f.Add(mustMarshal(f, scriptSession(fmt.Sprintf("w%03d", i), i)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4<<10 {
			t.Skip() // the cut-anywhere check is quadratic
		}
		checkDecodeSession(t, b)
	})
}

// fillEveryField sets every field under v to a distinct non-zero value and
// fails on a kind the session codec has no code for.
func fillEveryField(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Int:
		v.SetInt(int64(*next))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillEveryField(t, v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillEveryField(t, v.Field(i), next)
		}
	default:
		t.Fatalf("the SessionUpload tree has a %s (%s): teach codec.go that kind first", v.Kind(), v.Type())
	}
}

// TestSessionCodecCoversEveryField is the guard against the five structs
// drifting from the codec: a field added to any of them and not to
// codec.go is an unknown key to the fast path (this test fails on ok) and a
// missing one in appendSession's output (this test fails on the bytes) —
// here, not as a production upload that silently takes the slow path or a
// stored session that silently loses a field.
func TestSessionCodecCoversEveryField(t *testing.T) {
	var x SessionUpload
	fillEveryField(t, reflect.ValueOf(&x).Elem(), new(int))
	wire := mustMarshal(t, &x)

	got := staleUpload()
	n, ok := scanSession(wire, &got)
	if !ok {
		t.Fatalf("the fast path refuses a session with every field set: %s", wire)
	}
	if n != len(wire) || !reflect.DeepEqual(got, x) {
		t.Errorf("decoded %d of %d bytes into %#v\nwant %#v", n, len(wire), got, x)
	}
	if stored := appendSession(nil, &x); !bytes.Equal(stored, wire) {
		t.Errorf("appendSession: %s\njson.Marshal:  %s", stored, wire)
	}
}

// TestDecodeFallbackCounter: ordinary traffic — the script's session, a
// comment with a quote, an emoji and an accent — stays on the fast path on
// both endpoints; a key spelled in capitals does not, and is counted.
func TestDecodeFallbackCounter(t *testing.T) {
	reg := obs.NewRegistry()
	srv, prep := prepTest(t, WithObservability(reg))
	fallbacks := reg.Counter("kscope_session_decode_fallback_total")

	plain := sampleUpload(prep, "plain", questionnaire.ChoiceLeft)
	plain.Responses[0].Comment = "the left one felt quicker to read"
	spicy := sampleUpload(prep, "spicy", questionnaire.ChoiceLeft)
	spicy.Responses[0].Comment = `she said "quicker" 👍 — naïve <b>`
	for _, up := range []SessionUpload{plain, spicy} {
		if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", mustMarshal(t, up), nil); rec.Code != http.StatusCreated {
			t.Fatalf("upload %s: %d %s", up.WorkerID, rec.Code, rec.Body)
		}
		up.WorkerID += "-batched"
		for i := range up.Responses {
			up.Responses[i].WorkerID = up.WorkerID
		}
		if rec, report := postBatch(t, srv, mustMarshal(t, []SessionUpload{up}), false); rec.Code != http.StatusOK || report.Accepted != 1 {
			t.Fatalf("batch of %s: %d %+v", up.WorkerID, rec.Code, report)
		}
	}
	if got := fallbacks.Value(); got != 0 {
		t.Errorf("%d of 4 ordinary sessions left the fast path", got)
	}
	var stored []SessionUpload
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/sessions", nil, &stored)
	if len(stored) != 4 || stored[2].Responses[0].Comment != spicy.Responses[0].Comment {
		t.Errorf("stored sessions: %+v", stored)
	}

	shouted := strings.Replace(string(mustMarshal(t, sampleUpload(prep, "shouted", questionnaire.ChoiceLeft))), `"worker_id"`, `"WORKER_ID"`, 1)
	if rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", []byte(shouted), nil); rec.Code != http.StatusCreated {
		t.Fatalf("upload with an upper-case key: %d %s", rec.Code, rec.Body)
	}
	if rec, report := postBatch(t, srv, []byte("["+shouted+"]"), false); rec.Code != http.StatusOK || report.Results[0].Status != http.StatusConflict {
		t.Fatalf("the same in a batch: %d %+v", rec.Code, report)
	}
	if got := fallbacks.Value(); got != 2 {
		t.Errorf("fallback counter = %d after two sessions with an upper-case key, want 2", got)
	}
	rec := doJSON(t, srv, http.MethodGet, "/metrics", nil, nil)
	if !strings.Contains(rec.Body.String(), "kscope_session_decode_fallback_total 2") {
		t.Errorf("/metrics does not show the counter:\n%s", rec.Body)
	}
}

var (
	benchUpload SessionUpload
	benchBytes  []byte
)

// BenchmarkDecodeSession is the decoder on the script's session beside
// json.Unmarshal: as the script sends it; with a comment that needs
// encoding/json (one string does); with a key in capitals (all of it does).
func BenchmarkDecodeSession(b *testing.B) {
	plain := scriptSession("w017-0208ef", 17)
	escaped := plain
	escaped.Responses = []questionnaire.Response{plain.Responses[0]}
	escaped.Responses[0].Comment = `she said "quicker" 👍 — naïve`
	plainWire := mustMarshal(b, plain)
	for _, bc := range []struct {
		name   string
		wire   []byte
		decode func([]byte, *SessionUpload) (int, error)
	}{
		{"plain", plainWire, decodeSession},
		{"escaped_comment", mustMarshal(b, escaped), decodeSession},
		{"fallback", bytes.Replace(plainWire, []byte(`"worker_id"`), []byte(`"WORKER_ID"`), 1), decodeSession},
		{"encoding_json", plainWire, func(wire []byte, u *SessionUpload) (int, error) {
			*u = SessionUpload{}
			return len(wire), json.Unmarshal(wire, u)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.wire)))
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(bc.wire, &benchUpload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendSession is the encoder on the script's session beside
// json.Marshal, and on one whose comment needs every kind of escape.
func BenchmarkAppendSession(b *testing.B) {
	u := scriptSession("w017-0208ef", 17)
	escaped := u
	escaped.Responses = []questionnaire.Response{u.Responses[0]}
	escaped.Responses[0].Comment = `she said "quicker" 👍 — naïve <b>`
	for _, bc := range []struct {
		name string
		up   *SessionUpload
	}{{"codec", &u}, {"escaped_comment", &escaped}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchBytes = appendSession(benchBytes[:0], bc.up)
			}
		})
	}
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBytes, _ = json.Marshal(&u)
		}
	})
}

// randomElement writes a JSON document shaped like a session upload — the
// five structs' keys, nested as the structs nest — dense in what the fast
// path must hand over: keys respelled, repeated or unknown, values of the
// wrong type, numbers that are not small integers, strings encoding/json
// rewrites, whitespace wherever JSON allows it; one in three then has a
// byte struck, so most ways of being malformed turn up too. Byte-level
// fuzzing rarely keeps a document this close to well-formed for long.
func randomElement(rng *rand.Rand) []byte {
	strs := []string{`"a"`, `"w-1"`, `"left"`, `""`, `"é"`, "\"\xff\"", `"escaped"`, `"q\"uote"`, `"back\\"`, `"}"`, `"<"`, `"&"`, `"😀"`, `"\ud83d"`, "\"\t\"", `"👍"`}
	nums := []string{"0", "7", "-7", "-0", "20000", "01", "1.0", "1e2", "-12.5e+3", "999999999999999999", "9223372036854775808", "-"}
	var b []byte
	space := func() {
		for rng.Intn(5) == 0 {
			b = append(b, " \n\t\r"[rng.Intn(4)])
		}
	}
	key := func(keys []string) {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(12) {
		case 0:
			k = strings.ToUpper(k)
		case 1:
			k = strings.Replace(k, "_", `\u005f`, 1)
		case 2:
			k = strings.Replace(k, "k", "K", 1)
		case 3:
			k = "extra"
		}
		b = append(append(append(b, '"'), k...), '"')
	}
	scalar := func(pool []string) {
		switch rng.Intn(12) {
		case 0:
			b = append(b, "null"...)
		case 1:
			b = append(b, nums[rng.Intn(len(nums))]...)
		case 2:
			b = append(b, strs[rng.Intn(len(strs))]...)
		case 3:
			b = append(b, []string{"true", "[]", "{}", `[{"a":[1,"]"]}]`}[rng.Intn(4)]...)
		default:
			b = append(b, pool[rng.Intn(len(pool))]...)
		}
	}
	// object writes {key: value, ...}; a key in arrays takes an array of
	// objects over arrays[key], any other key a scalar — an integer where
	// its name (in any case) ends "illis", "abs", "ches" or "ity".
	var object func(keys []string, arrays map[string][]string)
	object = func(keys []string, arrays map[string][]string) {
		b = append(b, '{')
		space()
		for i, n := 0, rng.Intn(len(keys)+2); i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			space()
			at := len(b)
			key(keys)
			name := strings.ToLower(string(b[at+1 : len(b)-1]))
			space()
			b = append(b, ':')
			space()
			switch elemKeys, isArray := arrays[name]; {
			case name == "demographics" && rng.Intn(8) > 0:
				object(demographicsKeys, nil)
			case isArray && rng.Intn(8) > 0:
				b = append(b, '[')
				space()
				for j, m := 0, rng.Intn(3); j < m; j++ {
					if j > 0 {
						b = append(b, ',')
					}
					space()
					object(elemKeys, nil)
					space()
				}
				b = append(b, ']')
			case strings.HasSuffix(name, "illis") || strings.HasSuffix(name, "abs") || strings.HasSuffix(name, "ches") || strings.HasSuffix(name, "ity"):
				scalar(nums[:6])
			default:
				scalar(strs)
			}
			space()
		}
		b = append(b, '}')
	}
	space()
	object(sessionKeys, map[string][]string{"responses": responseKeys, "behaviors": behaviorKeys, "controls": controlKeys})
	space()
	if len(b) > 0 && rng.Intn(3) == 0 {
		switch at := rng.Intn(len(b)); rng.Intn(3) {
		case 0:
			b = append(b[:at], b[at+1:]...)
		case 1:
			const strike = `{}[]",:\ 0-e.nx`
			b[at] = strike[rng.Intn(len(strike))]
		case 2:
			b = b[:at]
		}
	}
	return b
}

var codecSeed = flag.Int64("codec.seed", 0, "replay one seed of TestDecodeRandomSessions")

// TestDecodeRandomSessions holds the codec to FuzzDecodeSession's properties
// over documents dense in the hard cases, and checks the generator is doing
// its job: a fair share of them decode, on each path.
func TestDecodeRandomSessions(t *testing.T) {
	seeds := []int64{*codecSeed}
	if *codecSeed == 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= 6000; s++ {
			seeds = append(seeds, s)
		}
	}
	var fast, slow int
	for _, seed := range seeds {
		doc := randomElement(rand.New(rand.NewSource(seed)))
		checkDecodeSession(t, doc)
		if t.Failed() {
			t.Fatalf("seed %d (replay: go test ./internal/server -run TestDecodeRandomSessions -codec.seed=%d): %q", seed, seed, doc)
		}
		var u SessionUpload
		if _, ok := scanSession(doc, &u); ok {
			fast++
		} else if _, err := unmarshalSession(doc, &u); err == nil {
			slow++
		}
	}
	if *codecSeed == 0 && (fast < len(seeds)/20 || slow < len(seeds)/20) {
		t.Errorf("of %d documents %d decoded on the fast path and %d through encoding/json: the generator has drifted", len(seeds), fast, slow)
	}
}
