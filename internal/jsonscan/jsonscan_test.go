package jsonscan

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// nested returns `{"a":{"a":...1...}}` with depth objects.
func nested(depth int) string {
	return strings.Repeat(`{"a":`, depth) + "1" + strings.Repeat("}", depth)
}

// corpus seeds the three fuzz targets, which makes it their table test on
// every plain `go test`. It is the seed corpora of the three codecs built on
// this package, copied (a test cannot import another package's): each way a
// key or a string can part from the bytes spelling it, every shape of number,
// and documents cut short or malformed at every kind of token.
var corpus = []string{
	// internal/shard: splitCorpus.
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
	// internal/server: elementCorpus (FuzzDecodeSession).
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
	// internal/store: wireCases' payloads.
	`{"op":"put","id":"a","doc":{"_id":"a","v":1}}`,
	`{"op":"del","id":"a"}`,
	`{"op":"put","id":"a","doc":{}}`,
	`{"op":"put","id":"aé\"\\\/","doc":{"<>&":"<>& é 😀 \ud800 \n"}}`,
	"{\"op\":\"put\",\"id\":\"a\",\"doc\":{\"k\":\"\u2028\u2029\"}}",
	"{\"op\":\"put\",\"id\":\"\xff\",\"doc\":{\"\xff\":\"\xc3\"}}",
	`{"op":"put","id":"a","doc":{"a":[1,-0,0.5,1e21,1E-7,2.5e+300,true,false,null,[],{}],"b":{"c":[[]]}}}`,
	`{"op":"put","id":"a","doc":{"v":-0}}`,
	`{"op":"put","id":"a","doc":{"v":` + strings.Repeat("9", 300) + `}}`,
	`{"op":"put","id":"a","doc":{"k":1,"k":2}}`,
	`{"op":"put","id":"a","doc":` + nested(64) + `}`,
	`{"op":"put","id":"a","doc":` + nested(65) + `}`,
	`{"op": "put", "id": "a", "doc": {"_id": "a"}}`,
	`{"id":"a","op":"del"}`,
	`{"op":"explode","op":"del","id":"a"}`,
	`{"OP":"del","id":"a"}`,
	`{"\u006fp":"del","id":"a"}`,
	`{"op":"del","id":"a","doc":{"x":1}}`,
	`{"op":"put","id":"a","doc":{"v":` + strings.Repeat("9", 400) + `}}`,
	`{"op":"put","id":"a","doc":{"v":1e999}}`,
	`{"op":"put","id":"a","doc":{"v":[{"w":-1E+999}]}}`,
	`{"op":"put","id":"a","doc":null}`,
	`{"op":"put","id":"a"}`,
	`{"op":"put","id":"a","doc":[1]}`,
	`{"op":"put","id":"","doc":{"_id":""}}`,
	`{"op":"explode","id":"a"}`,
	`{"op":"del","id":"\x"}`,
	`{"op":"del","id":"\u12"}`,
	"{\"op\":\"del\",\"id\":\"a\tb\"}",
	`{"op":"put","id":"a","doc":{"v":01}}`,
	`{"op":"put","id":"a","doc":{"v":-}}`,
	`{"op":"put","id":"a","doc":{"v":1,}}`,
	`{"op":"del","id":"a"}}`,
	`{"op":"put","id":"a","doc":{"v":"x`,
	"{\"op\":\"del\",\n\"id\":\"a\"}",
}

// checkValue holds Value, on the value that starts b after any whitespace, to
// encoding/json: accepted exactly when json.Decoder reads a value there, ending
// where it ends, and Short exactly when json.Decoder runs out of input first;
// the span is json.Valid; the whole of b is one value exactly
// when json.Valid(b); and a value with no big number decodes, so a refusal to
// decode valid JSON can only be a number out of range.
func checkValue(t *testing.T, b []byte) {
	t.Helper()
	b = slices.Clip(b) // no spare capacity: re-slicing past the end panics as indexing does
	start := SkipSpace(b, 0)
	end, big := Value(b, start, 0)
	dec := json.NewDecoder(bytes.NewReader(b))
	var raw json.RawMessage
	err := dec.Decode(&raw)
	if (end >= 0) != (err == nil) || (end == Short) != (err == io.EOF || err == io.ErrUnexpectedEOF) {
		t.Fatalf("Value(%q) = %d; json.Decoder: %v", b, end, err)
	}
	if whole := end >= 0 && SkipSpace(b, end) == len(b); whole != json.Valid(b) {
		t.Errorf("%q read as one value = %v, json.Valid = %v", b, whole, !whole)
	}
	if end < 0 {
		return
	}
	if want := int(dec.InputOffset()); end != want {
		t.Errorf("Value(%q) ends at %d, json.Decoder at %d", b, end, want)
	}
	if !json.Valid(b[start:end]) {
		t.Errorf("Value(%q) vouches for %q, json.Valid does not", b, b[start:end])
	}
	var v any
	if err := json.Unmarshal(b[start:end], &v); err != nil && !big {
		t.Errorf("Value(%q) met no big number, yet: %v", b, err)
	}
	if c := b[start]; c == '-' || '0' <= c && c <= '9' {
		if n, nbig := Number(b, start); n != end || nbig != big {
			t.Errorf("Number(%q) = %d, %v; Value = %d, %v", b, n, nbig, end, big)
		}
	}
}

func FuzzValue(f *testing.F) {
	for _, seed := range corpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkValue)
}

// TestValueDepth: encoding/json's nesting limit, to the container, counted
// from the depth the caller says the value already stands at.
func TestValueDepth(t *testing.T) {
	for _, open := range []string{"[", `{"a":`} {
		for _, depth := range []int{MaxDepth - 1, MaxDepth, MaxDepth + 1} {
			doc := []byte(strings.Repeat(open, depth) + "1" + strings.Repeat(string(open[0]+2), depth))
			end, _ := Value(doc, 0, 0)
			if got, want := end == len(doc), json.Valid(doc); got != want || want != (depth <= MaxDepth) {
				t.Errorf("%d of %q: accepted = %v, json.Valid = %v", depth, open, got, want)
			}
			inner := doc[len(open) : len(doc)-1]
			if end, _ := Value(inner, 0, 1); (end == len(inner)) != (depth <= MaxDepth) {
				t.Errorf("%d of %q, the outermost stepped into: Value = %d of %d", depth, open, end, len(inner))
			}
		}
	}
}

// checkString holds String at s[0] to encoding/json: accepted exactly when s
// starts with a string json.Decoder reads, ending where it ends, Short exactly
// when json.Decoder runs out of input in it; a plain one is its own value, and
// Unquote reads any one as json.Decoder does.
func checkString(t *testing.T, s []byte) {
	t.Helper()
	s = slices.Clip(s)
	end, plain := String(s, 0)
	dec := json.NewDecoder(bytes.NewReader(s))
	var want string
	err := dec.Decode(&want)
	if accepted := len(s) > 0 && s[0] == '"' && err == nil; accepted != (end >= 0) {
		t.Fatalf("String(%q) = %d; json.Decoder: %v", s, end, err)
	}
	if short := err == io.EOF || err == io.ErrUnexpectedEOF; (len(s) == 0 || s[0] == '"') && short != (end == Short) {
		t.Fatalf("String(%q) = %d; json.Decoder: %v", s, end, err)
	}
	if end < 0 {
		if plain {
			t.Errorf("String(%q) refuses a plain string", s)
		}
		return
	}
	if int(dec.InputOffset()) != end || !json.Valid(s[:end]) {
		t.Errorf("String(%q) ends at %d, json.Decoder at %d", s, end, dec.InputOffset())
	}
	raw := s[1 : end-1]
	isPlain := !bytes.ContainsRune(raw, '\\') && bytes.IndexFunc(raw, func(r rune) bool { return r >= utf8.RuneSelf }) < 0
	if plain != isPlain || (plain && string(raw) != want) {
		t.Errorf("String(%q): plain = %v, the bytes are %q and the value %q", s, plain, raw, want)
	}
	if got := Unquote(s[:end]); got != want {
		t.Errorf("Unquote(%q) = %q, json.Decoder reads %q", s[:end], got, want)
	}
}

func FuzzString(f *testing.F) {
	for _, seed := range corpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// As it stands, between quotes (mutation seldom balances them), and
		// from every quote inside it.
		checkString(t, b)
		checkString(t, append(append([]byte{'"'}, b...), '"'))
		for i, c := range b {
			if c == '"' {
				checkString(t, b[i:])
			}
		}
		if end, _ := String(b, len(b)); end >= 0 {
			t.Errorf("String past the end of %q = %d", b, end)
		}
	})
}

func FuzzAppendString(f *testing.F) {
	for _, seed := range corpus {
		f.Add(seed)
	}
	// The WAL record encoder's seeds, whose escaper this was.
	for _, seed := range []string{"<>& \xff", "\x00\x1f\"\\", "\u2029", "x\u2028y", "\xed\xa0\x80", "\x7f", "\b\f\n\r\t", "日本語 😀 \ufffd", "a\xc3"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		const before = "earlier bytes"
		got := AppendString([]byte(before), s)
		if string(got) != before+string(want) {
			t.Fatalf("AppendString(%q) = %q, json.Marshal %q", s, got[len(before):], want)
		}
		// What it writes is a string the scanner takes whole, plain exactly
		// when nothing had to be escaped.
		end, plain := String(slices.Clip(got), len(before))
		if end != len(got) || plain != (string(want[1:len(want)-1]) == s && !strings.ContainsFunc(s, func(r rune) bool { return r >= utf8.RuneSelf })) {
			t.Errorf("String(AppendString(%q)) = %d of %d, plain = %v", s, end, len(got), plain)
		}
	})
}
