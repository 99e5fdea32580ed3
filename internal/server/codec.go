package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/jsonscan"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
)

// The session codec: the one decoder and the one encoder of SessionUpload
// and the four structs under it (strings and ints only), written out by hand
// because encoding/json's two passes over every element — one to find its
// end, one reflective — were half of a batch's handling time. encoding/json
// stays the authority. The decoder's fast path takes an element only when
// json.Unmarshal could not read it differently — every key spelled exactly
// as its tag, plain and at most once, every value of the field's type, no
// null — and hands everything else, malformed JSON included, to
// json.Decoder; the encoder writes json.Marshal's bytes. FuzzDecodeSession
// holds both to encoding/json, and TestSessionCodecCoversEveryField fails
// when a field is added to one of the five structs and not here.

// errCutShort reports a JSON value that runs past the end of the buffer; what
// is there is well-formed as far as it goes.
var errCutShort = errors.New("unexpected end of JSON input")

var sessionKeys = []string{"test_id", "worker_id", "demographics", "responses", "behaviors", "controls"}

// decodeSession decodes the JSON value that starts b (after any whitespace)
// into u exactly as json.Unmarshal would into a zero SessionUpload, reusing
// only the capacity of u's slices, and returns the index past the value.
// Bytes after it are the caller's business. Every string in u is its own
// allocation, never a view of b. n is the value's end whenever the value is
// well-formed JSON, also when err says it is not a session; errCutShort
// means b ends inside the value.
func decodeSession(b []byte, u *SessionUpload) (n int, err error) {
	if n, ok := scanSession(b, u); ok {
		return n, nil
	}
	return unmarshalSession(b, u)
}

// unmarshalSession is encoding/json's reading of the value that starts b:
// json.Decoder, which finds where the value ends and takes the end of b for
// the end of a number or a literal, as the batch endpoint always has.
func unmarshalSession(b []byte, u *SessionUpload) (int, error) {
	*u = SessionUpload{}
	dec := json.NewDecoder(bytes.NewReader(b))
	err := dec.Decode(u)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = errCutShort
	}
	return int(dec.InputOffset()), err
}

// scanSession is the fast path: one pass that checks grammar and fills u.
// ok false means it met something it will not vouch for and u holds rubbish.
func scanSession(b []byte, u *SessionUpload) (n int, ok bool) {
	s := sessionScanner{b: b}
	responses, behaviors, controls := u.Responses, u.Behaviors, u.Controls
	*u = SessionUpload{}
	for seen := uint(0); ; {
		switch s.field(sessionKeys, &seen) {
		case 0:
			u.TestID = s.str()
		case 1:
			u.WorkerID = s.str()
		case 2:
			s.demographics(&u.Demographics)
		case 3:
			for u.Responses = emptied(responses); s.element(len(u.Responses)); {
				s.response(grown(&u.Responses))
			}
		case 4:
			for u.Behaviors = emptied(behaviors); s.element(len(u.Behaviors)); {
				s.behavior(grown(&u.Behaviors))
			}
		case 5:
			for u.Controls = emptied(controls); s.element(len(u.Controls)); {
				s.control(grown(&u.Controls))
			}
		default:
			return s.i, s.b != nil
		}
	}
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
	for seen := uint(0); ; {
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

// sessionScanner walks b from i. The first thing the fast path will not
// vouch for — b running out included — takes b away: space then returns 0
// for ever, which every method refuses, so the walk unwinds without a check
// at each step, and a nil b at the end says the scan failed.
type sessionScanner struct {
	b []byte
	i int
	// src, when set, is b as a string, and a plain string read is a view of
	// it rather than an allocation of its own.
	src string
}

// space skips whitespace and returns the byte it stops on, 0 at the end of b.
func (s *sessionScanner) space() (c byte) {
	s.i, c = jsonscan.Next(s.b, s.i)
	return c
}

func (s *sessionScanner) fail() int {
	s.b = nil
	return -1
}

// field steps to the next member of the object being read — seen is zero
// on the first call — and returns the index in names of its key, with the
// scanner on the member's value; -1 when the object has closed or the scan
// has failed. An unknown, repeated, escaped or differently-cased key fails
// the scan: encoding/json matches keys case-folded and decodes a repeated
// one again into what the first left.
func (s *sessionScanner) field(names []string, seen *uint) int {
	c := s.space()
	if *seen == 0 {
		if c != '{' {
			return s.fail()
		}
		s.i++
		c = s.space()
	}
	if c == '}' {
		s.i++
		return -1
	}
	if *seen != 0 {
		if c != ',' {
			return s.fail()
		}
		s.i++
		c = s.space()
	}
	if c != '"' {
		return s.fail()
	}
	// A key that is not plain cannot equal a name, which are.
	start := s.i + 1
	end := start + max(bytes.IndexByte(s.b[start:], '"'), 0)
	s.i = end + 1
	if s.space() != ':' {
		return s.fail()
	}
	s.i++
	for k, name := range names {
		if string(s.b[start:end]) == name {
			if *seen&(1<<k) != 0 {
				return s.fail()
			}
			*seen |= 1 << k
			return k
		}
	}
	return s.fail()
}

// str reads a string value: jsonscan finds its end, and one with a backslash
// or a byte >= 0x80 in it — a comment with a quote or an emoji — goes to
// json.Unmarshal alone (escapes, surrogates, invalid UTF-8 → U+FFFD are its
// rules) while the scan carries on.
func (s *sessionScanner) str() string {
	s.space()
	open := s.i
	end, plain := jsonscan.String(s.b, open)
	if end < 0 {
		s.fail()
		return ""
	}
	s.i = end
	if plain && s.src != "" {
		return s.src[open+1 : end-1]
	}
	if plain {
		return string(s.b[open+1 : end-1])
	}
	var v string // escapes to json.Unmarshal: declared here, only this path pays for it
	if json.Unmarshal(s.b[open:end], &v) != nil {
		s.fail()
	}
	return v
}

// num reads an integer of at most 18 digits, so it cannot overflow. What
// follows it is the next step's to refuse — a fraction or an exponent is
// no ',' or '}' — and anything longer encoding/json's to accept or refuse.
func (s *sessionScanner) num() int {
	c, j := s.space(), s.i
	if c == '-' {
		j++
	}
	start, v := j, int64(0)
	for ; j < len(s.b) && '0' <= s.b[j] && s.b[j] <= '9'; j++ {
		v = v*10 + int64(s.b[j]-'0')
	}
	if c == '-' {
		v = -v
	}
	if digits := j - start; digits == 0 || digits > 18 || (digits > 1 && s.b[start] == '0') || int64(int(v)) != v {
		s.fail()
		return 0
	}
	s.i = j
	return int(v)
}

// element steps to the next element of the array being read, of which n
// have been; false when the array has closed or the scan has failed.
func (s *sessionScanner) element(n int) bool {
	switch c := s.space(); {
	case n == 0 && c == '[':
		if s.i++; s.space() != ']' {
			return true
		}
	case n > 0 && c == ',':
		s.i++
		return true
	case n == 0 || c != ']':
		s.fail()
	}
	s.i++
	return false
}

// emptied is xs with no elements, its capacity kept, and never nil: an
// empty array is stored as [], an absent one as null.
func emptied[T any](xs []T) []T {
	if xs == nil {
		return []T{}
	}
	return xs[:0]
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
