package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/jsonscan"
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
	// Integers: 18 and 19 digits, an int's edge, and what is not one.
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
// on one input. The oracle is json.Decoder reading one value off the front of
// b into a fresh struct, which is what the batch endpoint did per element
// before this codec. Where the codec accepts, encoding/json reads the same
// value ending at the same byte, and appendSession writes json.Marshal's
// bytes. Where encoding/json accepts and the codec refuses, they agree where
// the value ends, and the refusal names one of the four rules, which
// checkRefusal confirms holds of b. Where encoding/json refuses, the codec
// refuses too, and they agree on whether more input could help. It returns
// the refusal, if that is the answer.
func checkDecodeSession(t *testing.T, b []byte) *refusal {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	var want SessionUpload
	wantErr := dec.Decode(&want)
	wantEnd := int(dec.InputOffset())

	got := staleUpload()
	n, err := decodeSession(b, &got)
	var refused *refusal
	switch {
	case wantErr != nil:
		if err == nil {
			t.Fatalf("decodeSession accepts %q; encoding/json: %v", b, wantErr)
		}
		if cut, wantCut := err == errCutShort, wantErr == io.EOF || wantErr == io.ErrUnexpectedEOF; cut != wantCut {
			t.Fatalf("decodeSession: %v; encoding/json: %v: they disagree on whether more input could help", err, wantErr)
		}
		return nil
	case errors.As(err, &refused):
		if n != wantEnd {
			t.Errorf("the value ends at %d, the refusal says %d", wantEnd, n)
		}
		checkRefusal(t, b[:n], refused)
		return refused
	case err != nil:
		t.Fatalf("decodeSession: %v, which is none of the four rules; encoding/json reads %#v", err, want)
	}
	if breaksARule(b[:n]) {
		t.Errorf("decodeSession accepts %q, which breaks one of the four rules", b[:n])
	}
	if n != wantEnd {
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
	return nil
}

// sessionMember is one member of an object of a session, as walkSession finds it.
type sessionMember struct {
	at    int    // the offset of its key's opening quote
	key   string // as written
	plain bool
	value []byte
	tags  []string // the tags of the struct the object is a value of
	ahead []string // the keys before it in the object, as written
}

// walkSession visits every member of every object in value, a session
// encoding/json reads, descending by the keys as written, and reports
// whether a null stands where an object of the session must: the session
// itself, or an element of its arrays.
func walkSession(value []byte, visit func(sessionMember)) (nullObject bool) {
	value = slices.Clip(value)
	offset := func(x []byte) int { return len(value) - cap(x) } // x is a slice of value
	elements := map[string][]string{"responses": responseKeys, "behaviors": behaviorKeys, "controls": controlKeys}
	var walk func(obj []byte, tags []string)
	walk = func(obj []byte, tags []string) {
		if obj[0] != '{' {
			nullObject = true
			return
		}
		var ahead []string
		jsonscan.Members(obj, 0, 0, func(key, v []byte, plain bool) {
			visit(sessionMember{offset(key) - 1, string(key), plain, v, tags, ahead})
			switch elemTags, isArray := elements[string(key)]; {
			case string(key) == "demographics" && v[0] == '{':
				walk(v, demographicsKeys)
			case isArray && v[0] == '[':
				for i, c := jsonscan.Next(v, 1); c != ']'; {
					end, _ := jsonscan.Value(v, i, 0)
					walk(v[i:end], elemTags)
					if i, c = jsonscan.Next(v, end); c == ',' {
						i, c = jsonscan.Next(v, i+1)
					}
				}
			}
			ahead = append(ahead, string(key))
		})
	}
	walk(value[jsonscan.SkipSpace(value, 0):], sessionKeys)
	return nullObject
}

// breaksARule says whether value, a session encoding/json reads, has one of
// the four things the codec refuses: a key unknown to its struct, respelled
// or repeated, or a null that no array key's value is.
func breaksARule(value []byte) bool {
	arrays, broken := []string{"responses", "behaviors", "controls"}, false
	nullObject := walkSession(value, func(m sessionMember) {
		broken = broken || !m.plain || !slices.Contains(m.tags, m.key) || slices.Contains(m.ahead, m.key) ||
			m.value[0] == 'n' && !slices.Contains(arrays, m.key)
	})
	return broken || nullObject
}

// checkRefusal confirms from the bytes alone that r's rule holds of value, a
// document encoding/json reads: the key it names is a key of value's at the
// offset it names, and is unknown to its struct, a tag of it spelled
// otherwise, or a tag that stands ahead of it in the same object; or a null
// stands there that is not an array's.
func checkRefusal(t *testing.T, value []byte, r *refusal) {
	t.Helper()
	if r.at < 0 || r.at >= len(value) || !breaksARule(value) {
		t.Fatalf("%v: no byte of the %d-byte value, or it breaks no rule", r, len(value))
	}
	if r.rule == ruleNull || r.rule == ruleNullElement {
		if !bytes.HasPrefix(value[r.at:], []byte("null")) {
			t.Fatalf("%v: %q stands there", r, value[r.at:])
		}
		before := bytes.TrimRight(value[:r.at], " \t\r\n")
		switch {
		case r.key == "":
			if len(before) > 0 {
				t.Errorf("%v: the null is not the session", r)
			}
		case r.rule == ruleNullElement:
			if !bytes.HasSuffix(before, []byte("[")) && !bytes.HasSuffix(before, []byte(",")) {
				t.Errorf("%v: the null is no element", r)
			}
		case slices.Contains([]string{"responses", "behaviors", "controls"}, r.key):
			t.Errorf("%v: an array may be null", r)
		case !bytes.HasSuffix(bytes.TrimRight(bytes.TrimSuffix(before, []byte(":")), " \t\r\n"), []byte(`"`+r.key+`"`)):
			t.Errorf("%v: the null is no value of that key", r)
		}
		return
	}
	var m *sessionMember
	walkSession(value, func(found sessionMember) {
		if found.at == r.at {
			m = &found
		}
	})
	if m == nil || m.key != r.key {
		t.Fatalf("%v: no key of the session's stands there", r)
	}
	key := m.key
	if !m.plain {
		key = jsonscan.Unquote(value[m.at : m.at+len(m.key)+2])
	}
	folds := slices.ContainsFunc(m.tags, func(tag string) bool { return strings.EqualFold(key, tag) })
	exact := m.plain && slices.Contains(m.tags, m.key)
	switch r.rule {
	case ruleUnknown:
		if folds {
			t.Errorf("%v: the key is a tag of %v, in some spelling", r, m.tags)
		}
	case ruleSpelling:
		if !folds || exact {
			t.Errorf("%v: the key is no tag of %v, or is one as written", r, m.tags)
		}
	case ruleRepeated:
		if !exact || !slices.Contains(m.ahead, m.key) {
			t.Errorf("%v: the key is no tag of %v, or not ahead of it in %q", r, m.tags, m.ahead)
		}
	default:
		t.Errorf("%v: no rule of the four", r)
	}
}

// FuzzDecodeSession is the gate on the session codec: for any bytes,
// decodeSession into a used upload and encoding/json into a fresh one answer
// as checkDecodeSession says. The decoder does not recover from an index out
// of range, so reading outside b is a panic.
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
// codec.go is an unknown key to the decoder (this test fails on the error)
// and a missing one in appendSession's output (this test fails on the bytes)
// — here, not as production uploads refused for a key their client sends or
// a stored session that silently loses a field.
func TestSessionCodecCoversEveryField(t *testing.T) {
	var x SessionUpload
	fillEveryField(t, reflect.ValueOf(&x).Elem(), new(int))
	wire := mustMarshal(t, &x)

	got := staleUpload()
	n, err := decodeSession(wire, &got)
	if err != nil {
		t.Fatalf("the decoder refuses a session with every field set: %v\n%s", err, wire)
	}
	if n != len(wire) || !reflect.DeepEqual(got, x) {
		t.Errorf("decoded %d of %d bytes into %#v\nwant %#v", n, len(wire), got, x)
	}
	if stored := appendSession(nil, &x); !bytes.Equal(stored, wire) {
		t.Errorf("appendSession: %s\njson.Marshal:  %s", stored, wire)
	}
}

// TestReadmeListsEverySessionKey holds README's "### Session upload" table to
// the session codec's keys, object by object and in order: what a client is
// told to send is what the codec reads.
func TestReadmeListsEverySessionKey(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Session upload\n")
	if !ok {
		t.Fatal(`README.md has no "### Session upload" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	backticked := regexp.MustCompile("`([^`]+)`")
	listed := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) == 5 && strings.Contains(cells[2], "`") {
			object := strings.Trim(strings.TrimSpace(cells[1]), "`")
			for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
				listed[object] = append(listed[object], m[1])
			}
		}
	}
	want := map[string][]string{
		"session": sessionKeys, "demographics": demographicsKeys,
		"responses[]": responseKeys, "behaviors[]": behaviorKeys, "controls[]": controlKeys,
	}
	if !reflect.DeepEqual(listed, want) {
		t.Errorf("README lists the keys\n%v\nthe codec reads\n%v", listed, want)
	}
}

// FuzzSessionRoundTrip: the decoder reads back whatever the encoder, or
// json.Marshal, writes of any session — every int, any string, nil and empty
// arrays — as the session it was. Strings are made valid UTF-8 first: both
// encoders write an invalid byte as U+FFFD, so only a valid string can come
// back as it went.
func FuzzSessionRoundTrip(f *testing.F) {
	f.Add("srv-test", "w001", "she said \"quicker\" 👍 <b>&", int64(4000), int64(math.MinInt64), uint8(0))
	f.Add("", "", "", int64(0), int64(math.MaxInt64), uint8(7))
	f.Add("t\x00\u2028", "w\xff", "line\nbreak", int64(-1), int64(1e18), uint8(8))
	f.Fuzz(func(t *testing.T, testID, workerID, comment string, a, b int64, shape uint8) {
		valid := func(s string) string { return strings.ToValidUTF8(s, "\ufffd") }
		testID, workerID, comment = valid(testID), valid(workerID), valid(comment)
		u := SessionUpload{
			TestID: testID, WorkerID: workerID,
			Demographics: crowd.Demographics{Gender: comment, AgeBand: workerID, Country: testID, TechAbility: int(a)},
			Responses: []questionnaire.Response{{
				TestID: testID, WorkerID: workerID, PageID: comment, QuestionID: "q0",
				Choice: questionnaire.Choice(comment), Comment: comment, DurationMillis: int(b),
			}},
			Behaviors: []crowd.Behavior{{TimeOnTaskMillis: int(b), CreatedTabs: int(a), ActiveTabSwitches: int(a ^ b)}},
			Controls:  []quality.ControlOutcome{{PageID: testID, Expected: questionnaire.Choice(workerID), Got: questionnaire.Choice(comment)}},
		}
		// Bits 0-2 of shape make an array nil, bit 3 all of them empty.
		if shape&1 != 0 {
			u.Responses = nil
		}
		if shape&2 != 0 {
			u.Behaviors = nil
		}
		if shape&4 != 0 {
			u.Controls = nil
		}
		if shape&8 != 0 {
			u.Responses, u.Behaviors, u.Controls = []questionnaire.Response{}, []crowd.Behavior{}, []quality.ControlOutcome{}
		}
		for _, wire := range [][]byte{appendSession(nil, &u), mustMarshal(t, &u)} {
			got := staleUpload()
			if n, err := decodeSession(wire, &got); err != nil || n != len(wire) || !reflect.DeepEqual(got, u) {
				t.Fatalf("decodeSession(%s) = %d, %v:\n%#v\nwant %#v", wire, n, err, got, u)
			}
		}
	})
}

// TestRespelledKeyIsRefused: ordinary traffic — the script's session, a
// comment with a quote, an emoji and an accent — is stored from both
// endpoints; the same session with its worker_id key in capitals, which
// encoding/json would read case-folded, is refused on both, the rule, the
// key and the byte named, and nothing of it is stored.
func TestRespelledKeyIsRefused(t *testing.T) {
	srv, prep := prepTest(t)
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

	shouted := strings.Replace(string(mustMarshal(t, sampleUpload(prep, "shouted", questionnaire.ChoiceLeft))), `"worker_id"`, `"WORKER_ID"`, 1)
	const want = `decoding session: case or escape in key "WORKER_ID" at byte 22`
	rec := doJSON(t, srv, http.MethodPost, "/api/tests/srv-test/sessions", []byte(shouted), nil)
	var answer apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil || rec.Code != http.StatusBadRequest || answer.Error != want {
		t.Errorf("upload with an upper-case key: %d %s, want 400 %q", rec.Code, rec.Body, want)
	}
	rec, report := postBatch(t, srv, []byte("[ "+shouted+","+shouted+"]"), false)
	if rec.Code != http.StatusOK || report.Rejected != 2 {
		t.Fatalf("the same twice in a batch: %d %+v", rec.Code, report)
	}
	for _, res := range report.Results {
		if res.Status != http.StatusBadRequest || res.Error != want || res.WorkerID != "" {
			t.Errorf("batch element %+v, want 400 %q and no worker id", res, want)
		}
	}
	var stored []SessionUpload
	doJSON(t, srv, http.MethodGet, "/api/tests/srv-test/sessions", nil, &stored)
	if len(stored) != 4 || stored[2].Responses[0].Comment != spicy.Responses[0].Comment {
		t.Errorf("stored sessions: %+v", stored)
	}
}

var (
	benchUpload SessionUpload
	benchBytes  []byte
)

// BenchmarkDecodeSession is the decoder on the script's session beside
// json.Unmarshal: as the script sends it, and with a comment that needs
// jsonscan.Unquote (one string does).
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
// five structs' keys, nested as the structs nest — dense in what the codec
// must refuse or read as encoding/json does: keys respelled, repeated or
// unknown, values of the
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
// its job: of the documents encoding/json reads, a fair share the codec
// accepts and a fair share it refuses by a rule.
func TestDecodeRandomSessions(t *testing.T) {
	seeds := []int64{*codecSeed}
	if *codecSeed == 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= 6000; s++ {
			seeds = append(seeds, s)
		}
	}
	var accepted, refused int
	for _, seed := range seeds {
		doc := randomElement(rand.New(rand.NewSource(seed)))
		r := checkDecodeSession(t, doc)
		if t.Failed() {
			t.Fatalf("seed %d (replay: go test ./internal/server -run TestDecodeRandomSessions -codec.seed=%d): %q", seed, seed, doc)
		}
		var u SessionUpload
		if _, err := decodeSession(doc, &u); err == nil {
			accepted++
		} else if r != nil {
			refused++
		}
	}
	if *codecSeed == 0 && (accepted < len(seeds)/20 || refused < len(seeds)/20) {
		t.Errorf("of %d documents %d were accepted and %d refused by a rule: the generator has drifted", len(seeds), accepted, refused)
	}
}
