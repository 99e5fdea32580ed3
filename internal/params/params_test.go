package params

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func validTest() *Test {
	return &Test{
		TestID:          "font-size-study",
		WebpageNum:      2,
		TestDescription: "Which font size is easier to read?",
		ParticipantNum:  100,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []Webpage{
			{WebPath: "wiki-10pt", WebPageLoad: PageLoadSpec{UniformMillis: 3000}, WebMainFile: "index.html", WebDescription: "10pt"},
			{WebPath: "wiki-12pt", WebPageLoad: PageLoadSpec{UniformMillis: 3000}, WebMainFile: "index.html", WebDescription: "12pt"},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validTest().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Test)
		wantErr error
	}{
		{"missing id", func(tt *Test) { tt.TestID = "  " }, ErrMissingTestID},
		{"webpage count mismatch", func(tt *Test) { tt.WebpageNum = 3 }, ErrWebpageCount},
		{"too few webpages", func(tt *Test) { tt.WebpageNum = 1; tt.Webpages = tt.Webpages[:1] }, ErrWebpageCount},
		{"no questions", func(tt *Test) { tt.Questions = nil }, ErrNoQuestions},
		{"sorted, two questions", func(tt *Test) { tt.Sorted = true; tt.Questions = append(tt.Questions, "Which reads faster?") }, ErrSortedQuestions},
		{"no participants", func(tt *Test) { tt.ParticipantNum = 0 }, ErrNoParticipants},
		{"missing path", func(tt *Test) { tt.Webpages[0].WebPath = "" }, ErrMissingWebPath},
		{"missing main file", func(tt *Test) { tt.Webpages[1].WebMainFile = "" }, ErrMissingWebMainFile},
		{"negative uniform", func(tt *Test) { tt.Webpages[0].WebPageLoad = PageLoadSpec{UniformMillis: -1} }, ErrNegativeLoadTime},
		{
			"negative schedule",
			func(tt *Test) {
				tt.Webpages[0].WebPageLoad = PageLoadSpec{Schedule: []SelectorTime{{Selector: "#main", Millis: -5}}}
			},
			ErrNegativeLoadTime,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tt := validTest()
			tc.mutate(tt)
			err := tt.Validate()
			if err == nil {
				t.Fatal("Validate should fail")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("error = %v, want wrapping %v", err, tc.wantErr)
			}
		})
	}
}

func TestValidateEmptyQuestionAndSelector(t *testing.T) {
	tt := validTest()
	tt.Questions = []string{"ok", "   "}
	if err := tt.Validate(); err == nil || !strings.Contains(err.Error(), "question 1") {
		t.Errorf("empty question error = %v", err)
	}
	tt = validTest()
	tt.Webpages[0].WebPageLoad = PageLoadSpec{Schedule: []SelectorTime{{Selector: " ", Millis: 10}}}
	if err := tt.Validate(); err == nil || !strings.Contains(err.Error(), "empty selector") {
		t.Errorf("empty selector error = %v", err)
	}
}

func TestPageLoadSpecScalarJSON(t *testing.T) {
	var s PageLoadSpec
	if err := json.Unmarshal([]byte(`2000`), &s); err != nil {
		t.Fatalf("unmarshal scalar: %v", err)
	}
	if !s.IsUniform() || s.UniformMillis != 2000 {
		t.Fatalf("got %+v, want uniform 2000", s)
	}
	if s.MaxMillis() != 2000 {
		t.Errorf("MaxMillis = %d, want 2000", s.MaxMillis())
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(out) != "2000" {
		t.Errorf("marshal = %s, want 2000", out)
	}
}

// TestPageLoadSpecArrayJSON decodes the exact example from the paper:
// ["#main":1000, "#content p":1500] rendered as JSON objects.
func TestPageLoadSpecArrayJSON(t *testing.T) {
	var s PageLoadSpec
	raw := `[{"#main":1000},{"#content p":1500}]`
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatalf("unmarshal array: %v", err)
	}
	if s.IsUniform() {
		t.Fatal("array form should not be uniform")
	}
	want := []SelectorTime{{"#main", 1000}, {"#content p", 1500}}
	if len(s.Schedule) != len(want) {
		t.Fatalf("schedule len %d, want %d", len(s.Schedule), len(want))
	}
	for i := range want {
		if s.Schedule[i] != want[i] {
			t.Errorf("schedule[%d] = %+v, want %+v", i, s.Schedule[i], want[i])
		}
	}
	if s.MaxMillis() != 1500 {
		t.Errorf("MaxMillis = %d, want 1500", s.MaxMillis())
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var round PageLoadSpec
	if err := json.Unmarshal(out, &round); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	for i := range want {
		if round.Schedule[i] != want[i] {
			t.Errorf("round-trip schedule[%d] = %+v, want %+v", i, round.Schedule[i], want[i])
		}
	}
}

func TestPageLoadSpecMapJSON(t *testing.T) {
	var s PageLoadSpec
	raw := `{"#nav":2000,"#content":4000,"#aside":1000}`
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatalf("unmarshal map: %v", err)
	}
	// Map form orders selectors lexicographically for determinism.
	want := []SelectorTime{{"#aside", 1000}, {"#content", 4000}, {"#nav", 2000}}
	for i := range want {
		if s.Schedule[i] != want[i] {
			t.Errorf("schedule[%d] = %+v, want %+v", i, s.Schedule[i], want[i])
		}
	}
}

func TestPageLoadSpecBadJSON(t *testing.T) {
	cases := []string{
		`[{"#a":1,"#b":2}]`, // two keys in one entry
		`[{"#a":"soon"}]`,   // non-integer time
		`"fast"`,            // wrong scalar type
		`{"#a":"x"}`,        // bad map value
	}
	for _, raw := range cases {
		var s PageLoadSpec
		if err := json.Unmarshal([]byte(raw), &s); err == nil {
			t.Errorf("unmarshal %q should fail", raw)
		}
	}
}

func TestPageLoadSpecNull(t *testing.T) {
	var s PageLoadSpec
	if err := json.Unmarshal([]byte(`null`), &s); err != nil {
		t.Fatalf("unmarshal null: %v", err)
	}
	if !s.IsUniform() || s.UniformMillis != 0 {
		t.Errorf("null spec = %+v, want zero", s)
	}
}

func TestParseAndEncodeRoundTrip(t *testing.T) {
	orig := validTest()
	data, err := orig.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.TestID != orig.TestID || parsed.WebpageNum != orig.WebpageNum ||
		parsed.ParticipantNum != orig.ParticipantNum || len(parsed.Webpages) != len(orig.Webpages) {
		t.Errorf("round trip mismatch: %+v vs %+v", parsed, orig)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse([]byte(`{`)); err == nil {
		t.Error("malformed JSON should error")
	}
	if _, err := Parse([]byte(`{"test_id":""}`)); err == nil {
		t.Error("invalid document should error")
	}
}

// TestParsePaperStyleDocument exercises a full Table I-style document with
// both page-load forms.
func TestParsePaperStyleDocument(t *testing.T) {
	raw := `{
	  "test_id": "uplt-study",
	  "webpage_num": 2,
	  "test_description": "Which part matters for uPLT?",
	  "participant_num": 100,
	  "question": ["Which version of the webpage seems ready to use first?"],
	  "webpages": [
	    {"web_path": "wiki-a", "web_page_load": [{"#navbar":2000},{"#content":4000}], "web_main_file": "index.html", "web_description": "nav first"},
	    {"web_path": "wiki-b", "web_page_load": [{"#navbar":4000},{"#content":2000}], "web_main_file": "index.html", "web_description": "text first"}
	  ]
	}`
	tt, err := Parse([]byte(raw))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tt.PairCount() != 1 {
		t.Errorf("PairCount = %d, want 1", tt.PairCount())
	}
	if tt.Webpages[0].WebPageLoad.MaxMillis() != 4000 {
		t.Errorf("version A MaxMillis = %d, want 4000", tt.Webpages[0].WebPageLoad.MaxMillis())
	}
	if got := tt.Webpages[1].WebPageLoad.Schedule[1]; got != (SelectorTime{"#content", 2000}) {
		t.Errorf("version B content schedule = %+v", got)
	}
}

func TestPairCount(t *testing.T) {
	tests := []struct {
		n, want int
	}{{2, 1}, {3, 3}, {4, 6}, {5, 10}}
	for _, tc := range tests {
		tt := Test{WebpageNum: tc.n}
		if got := tt.PairCount(); got != tc.want {
			t.Errorf("PairCount(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestPageLoadSpecRoundTripProperty: any non-negative spec survives a
// marshal/unmarshal round trip.
func TestPageLoadSpecRoundTripProperty(t *testing.T) {
	f := func(uniform uint16, times []uint16) bool {
		var s PageLoadSpec
		if len(times) == 0 {
			s = PageLoadSpec{UniformMillis: int(uniform)}
		} else {
			for i, ms := range times {
				s.Schedule = append(s.Schedule, SelectorTime{
					Selector: "#node" + string(rune('a'+i%26)),
					Millis:   int(ms),
				})
			}
		}
		data, err := json.Marshal(s)
		if err != nil {
			return false
		}
		var round PageLoadSpec
		if err := json.Unmarshal(data, &round); err != nil {
			return false
		}
		if round.IsUniform() != s.IsUniform() {
			return false
		}
		return round.MaxMillis() == s.MaxMillis()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParseParams: Parse is the network-facing decoder of the parameter
// builder and the CLI. It never panics, and a document it accepts survives
// Encode and Parse again as the same Test.
func FuzzParseParams(f *testing.F) {
	valid, err := validTest().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// `[]` is the crasher this target was written on: it decoded to an empty
	// non-nil Schedule, was encoded as 0 and came back nil.
	for _, load := range []string{`[]`, `{}`, `null`, `[{"#main":1000},{"#content p":1500}]`, `{"b":2,"a":1}`, `[{"a":1,"b":2}]`, `-1`, `1e3`, `"3000"`, `[{"":0}]`} {
		f.Add(bytes.Replace(valid, []byte(`"web_page_load": 3000`), []byte(`"web_page_load": `+load), 1))
	}
	for _, seed := range []string{``, `{}`, `null`, `[]`, `{"test_id":"t","webpage_num":2,"webpages":[{},{}]}`, `{"webpages":null,"question":[""]}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := Parse(data)
		if err != nil {
			return
		}
		encoded, err := first.Encode()
		if err != nil {
			t.Fatalf("Encode of a parsed document: %v", err)
		}
		again, err := Parse(encoded)
		if err != nil {
			t.Fatalf("Parse of Encode's output: %v\n%s", err, encoded)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("round trip changed the document:\nfirst %#v\nagain %#v\nvia %s", first, again, encoded)
		}
	})
}

// TestTestIDLengthLimit: a test id is held to MaxTestIDBytes with each '%'
// and '/' counted as the three bytes a directory blob store names it with.
func TestTestIDLengthLimit(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want error
	}{
		{strings.Repeat("a", MaxTestIDBytes), nil},
		{strings.Repeat("a", MaxTestIDBytes+1), ErrTestIDTooLong},
		{strings.Repeat("a", MaxTestIDBytes-3) + "%", nil},
		{strings.Repeat("a", MaxTestIDBytes-2) + "%", ErrTestIDTooLong},
		{strings.Repeat("a", MaxTestIDBytes-2) + "/", ErrTestIDTooLong},
	} {
		tt := validTest()
		tt.TestID = tc.id
		if err := tt.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("a %d-byte id ending %q: %v, want %v", len(tc.id), tc.id[len(tc.id)-1:], err, tc.want)
		}
	}
}
