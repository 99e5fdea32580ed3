package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/jsonscan"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
)

// The session codec: the one decoder and the one encoder of SessionUpload
// and the four structs under it (strings and ints only), written out by hand
// because encoding/json's two passes over every element — one to find its
// end, one reflective — were half of a batch's handling time. The encoder
// writes json.Marshal's bytes, which is what every client sends; the decoder
// reads those in any key order and spacing, any string escaped as JSON allows
// (decoded as encoding/json decodes it), null for the three arrays (as nil)
// and any int, and refuses everything else. Where encoding/json would read a
// document, the decoder refuses it for one of four things only, which a
// refusal names with the key and the byte: an unknown key, a key spelled
// unlike its tag (in another case, Unicode folds included, or escaped), a
// repeated key, and null anywhere but the three arrays. encoding/json would
// drop, fold, decode again or skip each of those, and so turn a client's
// misspelling into a session silently short of a field. FuzzDecodeSession
// holds the decoder to encoding/json and to the encoder, and
// TestSessionCodecCoversEveryField fails when a field is added to one of the
// five structs and not here.

// errCutShort reports a JSON value that runs past the end of the buffer; what
// is there is well-formed as far as it goes.
var errCutShort = errors.New("unexpected end of JSON input")

// errMalformed reports bytes that are no JSON value.
var errMalformed = errors.New("malformed JSON")

// The four rules a refusal names, null in two phrasings.
const (
	ruleUnknown     = "unknown key"
	ruleSpelling    = "case or escape in key"
	ruleRepeated    = "repeated key"
	ruleNull        = "null for"
	ruleNullElement = "null element of"
)

// refusal is a document encoding/json would read that the codec does not:
// the rule, the key it concerns as the document spells it (the array's, for
// a null element; none, for a null session), and the offset from the
// value's first byte of that key's opening quote or of the null.
type refusal struct {
	rule, key string
	at        int
}

func (e *refusal) Error() string {
	if e.rule == ruleNull && e.key == "" {
		return fmt.Sprintf("null session at byte %d", e.at)
	}
	return fmt.Sprintf("%s %q at byte %d", e.rule, e.key, e.at)
}

var sessionKeys = []string{"test_id", "worker_id", "demographics", "responses", "behaviors", "controls"}

// decodeSession decodes the JSON value that starts b (after any whitespace)
// into u, reusing only the capacity of u's slices, and returns the index past
// the value. Bytes after it are the caller's business. Every string in u is
// its own allocation, never a view of b. On an error u holds rubbish; n is
// the value's end whenever the value is well-formed JSON, also when err (a
// *refusal, or no session at all) says it is not one; errCutShort means b
// ends inside the value.
func decodeSession(b []byte, u *SessionUpload) (n int, err error) {
	s := sessionScanner{b: b}
	responses, behaviors, controls := u.Responses, u.Behaviors, u.Controls
	*u = SessionUpload{}
	for seen := uint64(0); ; {
		switch s.field(sessionKeys, &seen) {
		case 0:
			u.TestID = s.str()
		case 1:
			u.WorkerID = s.str()
		case 2:
			s.demographics(&u.Demographics)
		case 3:
			u.Responses = list(&s, responses, s.response)
		case 4:
			u.Behaviors = list(&s, behaviors, s.behavior)
		case 5:
			u.Controls = list(&s, controls, s.control)
		default:
			return s.verdict()
		}
	}
}

// DecodeSessionList reads a session list as GET /api/tests/{id}/sessions
// serves it: a JSON array of sessions, each read by the session codec.
func DecodeSessionList(b []byte) ([]SessionUpload, error) {
	out := []SessionUpload{}
	i, c := jsonscan.Next(b, 0)
	if c != '[' {
		return nil, errors.New("server: a session list is a JSON array")
	}
	for i, c = jsonscan.Next(b, i+1); c != ']'; i, c = jsonscan.Next(b, i) {
		if len(out) > 0 {
			if c != ',' {
				return nil, fmt.Errorf("server: session list: %w", errMalformed)
			}
			i++
		}
		var u SessionUpload
		n, err := decodeSession(b[i:], &u)
		if err != nil {
			return nil, fmt.Errorf("server: session list element %d: %w", len(out), err)
		}
		out, i = append(out, u), i+n
	}
	if jsonscan.SkipSpace(b, i+1) < len(b) {
		return nil, fmt.Errorf("server: session list: %w", errTrailingData)
	}
	return out, nil
}

// The four leaf structs: names lists a struct's string fields, then its int
// fields, and object fills them through pointers in that order.
var (
	demographicsKeys = []string{"gender", "age_band", "country", "tech_ability"}
	responseKeys     = []string{"test_id", "worker_id", "page_id", "question_id", "choice", "comment", "duration_millis"}
	behaviorKeys     = []string{"TimeOnTaskMillis", "CreatedTabs", "ActiveTabSwitches"}
	controlKeys      = []string{"page_id", "expected", "got"}
)

func (s *sessionScanner) demographics(d *crowd.Demographics) {
	s.object(demographicsKeys, []*string{&d.Gender, &d.AgeBand, &d.Country}, &d.TechAbility)
}

func (s *sessionScanner) response(r *questionnaire.Response) {
	s.object(responseKeys, []*string{&r.TestID, &r.WorkerID, &r.PageID, &r.QuestionID, (*string)(&r.Choice), &r.Comment}, &r.DurationMillis)
}

func (s *sessionScanner) behavior(v *crowd.Behavior) {
	s.object(behaviorKeys, nil, &v.TimeOnTaskMillis, &v.CreatedTabs, &v.ActiveTabSwitches)
}

func (s *sessionScanner) control(c *quality.ControlOutcome) {
	s.object(controlKeys, []*string{&c.PageID, (*string)(&c.Expected), (*string)(&c.Got)})
}

func (s *sessionScanner) object(names []string, strs []*string, ints ...*int) {
	for seen := uint64(0); ; {
		switch k := s.field(names, &seen); {
		case k < 0:
			return
		case k < len(strs):
			*strs[k] = s.str()
		default:
			*ints[k-len(strs)] = s.num()
		}
	}
}

// sessionScanner walks b from i. The first thing it cannot read — b running
// out included — is noted in err and sends i to the end of b: space then
// returns 0 for ever, which every method refuses, so the walk unwinds
// without a check at each step. A document encoding/json would read
// differently is noted in refused, and the walk reads on as encoding/json
// does — a respelled key as its tag, a repeated one again, an unknown one's
// value skipped, a null as no value at all — so that a value of the wrong
// type anywhere in it is still found, which encoding/json would refuse.
type sessionScanner struct {
	b []byte
	i int
	// src, when set, is b as a string, and a plain string read is a view of
	// it rather than an allocation of its own.
	src string
	// keyAt is where the opening quote of the key whose value is being read
	// stands: an int, which costs no write barrier per member. No key's
	// quote stands at 0.
	keyAt   int
	err     error
	refused *refusal
}

// space skips whitespace and returns the byte it stops on, 0 at the end of b.
func (s *sessionScanner) space() (c byte) {
	s.i, c = jsonscan.Next(s.b, s.i)
	return c
}

// fail stops the walk at the first thing it cannot read: a value that is
// not the want its field has, unless the grammar says otherwise.
func (s *sessionScanner) fail(want string) int {
	if s.err == nil {
		s.err = fmt.Errorf("want %s at byte %d", want, s.i)
	}
	s.i = len(s.b)
	return -1
}

// refuse notes the first of the four rules the document breaks.
func (s *sessionScanner) refuse(r *refusal) {
	if s.refused == nil {
		s.refused = r
	}
}

// verdict is the walk's answer once it is over. encoding/json checks a whole
// value's grammar before it reads any of it, and so does this: bytes that
// are not JSON, or are not all here, are refused as such whatever the walk
// met first; then a value of the wrong type; then one of the four rules.
func (s *sessionScanner) verdict() (int, error) {
	if s.err == nil && s.refused == nil {
		return s.i, nil
	}
	switch end, _ := jsonscan.Value(s.b, jsonscan.SkipSpace(s.b, 0), 0); {
	case end == jsonscan.Short:
		return len(s.b), errCutShort
	case end < 0:
		return 0, errMalformed
	case s.err != nil:
		return end, s.err
	default:
		return end, s.refused
	}
}

// keyOf is the key, as written, whose opening quote stands at b[at]; "" for
// none.
func (s *sessionScanner) keyOf(at int) string {
	if end, _ := jsonscan.String(s.b, at); end > 0 {
		return string(s.b[at+1 : end-1])
	}
	return ""
}

// mismatch answers a value at i, whose first byte is c, that is not the
// want its field has: a null is refused and stepped over, and anything else
// stops the walk.
func (s *sessionScanner) mismatch(c byte, want string) {
	if c != 'n' {
		s.fail(want)
		return
	}
	s.refuse(&refusal{rule: ruleNull, key: s.keyOf(s.keyAt), at: s.i})
	s.null()
}

// Bits of field's seen beyond the names': the object has opened, and a
// member has been read.
const (
	opened uint64 = 1 << 63
	member uint64 = 1 << 62
)

// field steps to the next member of the object being read — seen is zero
// on the first call — and returns the index in names of its key, with the
// scanner on the member's value; -1 when the object has closed or the walk
// has stopped. A key that is none of names as written, or is one already
// read, is refused; an unknown one's value is skipped.
func (s *sessionScanner) field(names []string, seen *uint64) int {
	for {
		c := s.space()
		if *seen == 0 {
			if c != '{' {
				s.mismatch(c, "an object")
				return -1
			}
			s.i++
			*seen = opened
			c = s.space()
		}
		if c == '}' {
			s.i++
			return -1
		}
		if *seen&member != 0 {
			if c != ',' {
				return s.fail("',' or '}'")
			}
			s.i++
			c = s.space()
		}
		if c != '"' {
			return s.fail("a key")
		}
		*seen |= member
		// Every name is plain, so a key with a backslash in it is none of
		// them and ending it at the first quote is safe.
		at := s.i
		end := at + 1 + max(bytes.IndexByte(s.b[at+1:], '"'), 0)
		k := -1
		for j, name := range names {
			if string(s.b[at+1:end]) == name {
				k = j
				break
			}
		}
		switch {
		case k < 0:
			var r *refusal
			if k, end, r = misnamed(s.b, at, names); r == nil {
				return s.fail("a key")
			}
			s.refuse(r)
		case *seen&(1<<k) != 0:
			s.refuse(&refusal{rule: ruleRepeated, key: names[k], at: at})
			end++
		default:
			end++
		}
		if s.i = end; s.space() != ':' {
			return s.fail("':'")
		}
		s.i++
		if k >= 0 {
			*seen |= 1 << k
			s.keyAt = at
			return k
		}
		// An unknown key's value may be any JSON, which encoding/json skips.
		end, _ = jsonscan.Value(s.b, jsonscan.SkipSpace(s.b, s.i), 0)
		if end < 0 {
			return s.fail("a value")
		}
		s.i = end
	}
}

// misnamed reads the key whose opening quote is b[at] and which is none of
// names as written: the index in names of the one encoding/json would take
// it for — in another case, Unicode folds included, or escaped — or -1, the
// index past its closing quote, and its refusal; nil for no JSON string.
func misnamed(b []byte, at int, names []string) (k, end int, r *refusal) {
	end, plain := jsonscan.String(b, at)
	if end < 0 {
		return -1, end, nil
	}
	raw := string(b[at+1 : end-1])
	key := raw
	if !plain {
		key = jsonscan.Unquote(b[at:end])
	}
	k = slices.IndexFunc(names, func(name string) bool { return strings.EqualFold(key, name) })
	if k < 0 {
		return k, end, &refusal{rule: ruleUnknown, key: raw, at: at}
	}
	return k, end, &refusal{rule: ruleSpelling, key: raw, at: at}
}

// str reads a string value. One with a backslash or a byte >= 0x80 in it — a
// comment with a quote or an emoji — is decoded by jsonscan.Unquote, whose
// rules (escapes, surrogates, invalid UTF-8 → U+FFFD) are encoding/json's.
func (s *sessionScanner) str() string {
	if c := s.space(); c != '"' {
		s.mismatch(c, "a string")
		return ""
	}
	open := s.i
	end, plain := jsonscan.String(s.b, open)
	if end < 0 {
		s.fail("a string")
		return ""
	}
	s.i = end
	switch {
	case !plain:
		return jsonscan.Unquote(s.b[open:end])
	case s.src != "":
		return s.src[open+1 : end-1]
	}
	return string(s.b[open+1 : end-1])
}

// num reads an integer, any an int holds: at most 19 digits, so the sum
// cannot overflow a uint64, and then checked against the int's range. A
// fraction or an exponent makes it no integer, as it does to encoding/json.
func (s *sessionScanner) num() int {
	c := s.space()
	if c != '-' && (c < '0' || c > '9') {
		s.mismatch(c, "an integer")
		return 0
	}
	j := s.i
	if c == '-' {
		j++
	}
	start, v := j, uint64(0)
	for ; j < len(s.b) && '0' <= s.b[j] && s.b[j] <= '9'; j++ {
		v = v*10 + uint64(s.b[j]-'0')
	}
	limit := uint64(math.MaxInt)
	if c == '-' {
		limit++
	}
	digits := j - start
	if digits == 0 || digits > 19 || (digits > 1 && s.b[start] == '0') || v > limit ||
		j < len(s.b) && (s.b[j] == '.' || s.b[j]|0x20 == 'e') {
		s.fail("an integer")
		return 0
	}
	s.i = j
	if c == '-' {
		return -int(v)
	}
	return int(v)
}

// element steps to the next element of the array being read, of which n
// have been; false when the array has closed or the walk has stopped. A null
// element is refused and stepped over.
func (s *sessionScanner) element(n int, keyAt int) bool {
	for ; ; n++ {
		switch c := s.space(); {
		case n == 0 && c == '[', n > 0 && c == ',':
			s.i++
		case n > 0 && c == ']':
			s.i++
			return false
		case n == 0:
			s.mismatch(c, "an array")
			return false
		default:
			s.fail("',' or ']'")
			return false
		}
		switch c := s.space(); {
		case n == 0 && c == ']':
			s.i++
			return false
		case c != 'n':
			return true
		}
		s.refuse(&refusal{rule: ruleNullElement, key: s.keyOf(keyAt), at: s.i})
		if !s.null() {
			return false
		}
	}
}

// null steps over a null, which the encoders write for a nil slice or map.
func (s *sessionScanner) null() bool {
	if s.space() != 'n' {
		return false
	}
	if !bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.fail("null")
		return false
	}
	s.i += len("null")
	return true
}

// boolean reads true or false.
func (s *sessionScanner) boolean() bool {
	c := s.space()
	for _, lit := range [...]string{"true", "false"} {
		if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
			s.i += len(lit)
			return lit == "true"
		}
	}
	s.mismatch(c, "a boolean")
	return false
}

// list reads an array whose elements one reads into the elements of xs,
// emptied but for its capacity, and never nil; null reads as nil.
func list[T any](s *sessionScanner, xs []T, one func(*T)) []T {
	if s.null() {
		return nil
	}
	keyAt := s.keyAt
	if xs == nil {
		xs = []T{}
	}
	for xs = xs[:0]; s.element(len(xs), keyAt); {
		one(grown(&xs))
	}
	return xs
}

// grown appends a zero T to *xs and returns it.
func grown[T any](xs *[]T) *T {
	*xs = append(*xs, *new(T))
	return &(*xs)[len(*xs)-1]
}

// appendSession appends u's stored form: json.Marshal(u), byte for byte.
func appendSession(dst []byte, u *SessionUpload) []byte {
	dst = jsonscan.AppendString(append(dst, `{"test_id":`...), u.TestID)
	dst = jsonscan.AppendString(append(dst, `,"worker_id":`...), u.WorkerID)
	dst = jsonscan.AppendString(append(dst, `,"demographics":{"gender":`...), u.Demographics.Gender)
	dst = jsonscan.AppendString(append(dst, `,"age_band":`...), u.Demographics.AgeBand)
	dst = jsonscan.AppendString(append(dst, `,"country":`...), u.Demographics.Country)
	dst = strconv.AppendInt(append(dst, `,"tech_ability":`...), int64(u.Demographics.TechAbility), 10)
	dst = appendArray(append(dst, `},"responses":`...), u.Responses, func(dst []byte, r *questionnaire.Response) []byte {
		dst = jsonscan.AppendString(append(dst, `{"test_id":`...), r.TestID)
		dst = jsonscan.AppendString(append(dst, `,"worker_id":`...), r.WorkerID)
		dst = jsonscan.AppendString(append(dst, `,"page_id":`...), r.PageID)
		dst = jsonscan.AppendString(append(dst, `,"question_id":`...), r.QuestionID)
		dst = jsonscan.AppendString(append(dst, `,"choice":`...), string(r.Choice))
		if r.Comment != "" {
			dst = jsonscan.AppendString(append(dst, `,"comment":`...), r.Comment)
		}
		dst = strconv.AppendInt(append(dst, `,"duration_millis":`...), int64(r.DurationMillis), 10)
		return append(dst, '}')
	})
	dst = appendArray(append(dst, `,"behaviors":`...), u.Behaviors, func(dst []byte, v *crowd.Behavior) []byte {
		dst = strconv.AppendInt(append(dst, `{"TimeOnTaskMillis":`...), int64(v.TimeOnTaskMillis), 10)
		dst = strconv.AppendInt(append(dst, `,"CreatedTabs":`...), int64(v.CreatedTabs), 10)
		dst = strconv.AppendInt(append(dst, `,"ActiveTabSwitches":`...), int64(v.ActiveTabSwitches), 10)
		return append(dst, '}')
	})
	dst = appendArray(append(dst, `,"controls":`...), u.Controls, func(dst []byte, c *quality.ControlOutcome) []byte {
		dst = jsonscan.AppendString(append(dst, `{"page_id":`...), c.PageID)
		dst = jsonscan.AppendString(append(dst, `,"expected":`...), string(c.Expected))
		dst = jsonscan.AppendString(append(dst, `,"got":`...), string(c.Got))
		return append(dst, '}')
	})
	return append(dst, '}')
}

func appendArray[T any](dst []byte, xs []T, one func([]byte, *T) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = one(dst, &xs[i])
	}
	return append(dst, ']')
}
