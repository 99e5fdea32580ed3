// Package jsonscan is the JSON grammar, held once for the hand-written codecs
// (the router's batch split, the session codec, the fold document codec, the
// WAL record codec): where a value ends and whether it is well formed, without
// building it. encoding/json is the authority: Value accepts what json.Valid
// accepts, AppendString writes json.Marshal's bytes, Unquote reads a string as
// json.Unmarshal does, and this package's fuzz targets hold them to it. Every
// function checks an index before it reads there, so a negative index is "not
// JSON" (Malformed) or "not all here" (Short), never a panic. Nothing here
// keeps state, and only Unquote allocates.
package jsonscan

import (
	"encoding/json"
	"unicode/utf8"
)

// MaxDepth is how many containers encoding/json lets a document nest.
const MaxDepth = 10000

// The two ends of what is no JSON value: Malformed when a byte says so, Short
// when the bytes run out first and what is there is well formed as far as it
// goes, so that more of them could make a value.
const (
	Malformed = -1
	Short     = -2
)

// fail is the end for bytes that went wrong at b[i]: Short past the end of b.
func fail(b []byte, i int) int {
	if i >= len(b) {
		return Short
	}
	return Malformed
}

// SkipSpace returns the index of the first byte at or after b[i] that is not
// JSON whitespace, len(b) when there is none.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// String returns the index just past the JSON string whose opening quote is
// b[i]; Malformed for no quote there, a control byte, an escape JSON does not
// have or a \u short of four hex digits, Short for b ending first. Invalid
// UTF-8 passes, as it does through encoding/json (which decodes it to
// U+FFFD). plain says the bytes between the quotes are the string's value:
// ASCII, nothing escaped.
func String(b []byte, i int) (end int, plain bool) {
	if i >= len(b) || b[i] != '"' {
		return fail(b, i), false
	}
	// Nearly every string ends in this loop, which asks one thing of a byte.
	for i++; i < len(b) && ' ' <= b[i] && b[i] < utf8.RuneSelf && b[i] != '\\'; i++ {
		if b[i] == '"' {
			return i + 1, true
		}
	}
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, false
		case c < ' ':
			return Malformed, false
		case c == '\\':
			if i++; i >= len(b) {
				return Short, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for n := 0; n < 4; n++ {
					if i++; i >= len(b) || !isHex(b[i]) {
						return fail(b, i), false
					}
				}
			default:
				return Malformed, false
			}
		}
	}
	return Short, false
}

// Unquote is the value of the JSON string b, quotes included, that String
// vouched for: escapes and surrogate pairs decoded, and invalid UTF-8 and a
// lone surrogate each made U+FFFD, as encoding/json decodes them. Only a
// string that is not plain needs it.
func Unquote(b []byte) string {
	var v string
	_ = json.Unmarshal(b, &v)
	return v
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f'
}

// Next skips whitespace from b[i] and returns where it stops and the byte
// there, 0 at the end of b (no JSON token starts with 0).
func Next(b []byte, i int) (int, byte) {
	if i = SkipSpace(b, i); i < len(b) {
		return i, b[i]
	}
	return i, 0
}

// Value returns the index just past the JSON value that starts at b[i], or
// Malformed or Short where json.Valid would refuse those bytes (Short where
// its error is "unexpected end of JSON input"): whitespace is allowed inside the
// value, none is skipped around it. depth is how many containers already
// enclose it, MaxDepth the most a document may nest. big reports a number in
// the value with an exponent or more than 300 characters — the only ones that
// can overflow a float64, which is a decoder's business, not the grammar's.
func Value(b []byte, i, depth int) (end int, big bool) {
	return Members(b, i, depth, nil)
}

// Members is Value with a look inside: when the value is an object, visit is
// called for each of its own members in turn — the key's bytes between the
// quotes, whether they are plain as String has it, and the member's value —
// before the rest of the object has been checked.
func Members(b []byte, i, depth int, visit func(key, value []byte, plain bool)) (end int, big bool) {
	if i >= len(b) {
		return Short, false
	}
	switch c := b[i]; c {
	case '"':
		end, _ = String(b, i)
		return end, false
	case '{', '[':
		if depth++; depth > MaxDepth {
			return Malformed, false
		}
		closer := c + 2 // '}' and ']' are their openers + 2
		i, next := Next(b, i+1)
		if next == closer {
			return i + 1, false
		}
		for {
			var key []byte
			var plain bool
			if c == '{' {
				if end, plain = String(b, i); end < 0 {
					return end, false
				}
				key = b[i+1 : end-1]
				if i, next = Next(b, end); next != ':' {
					return fail(b, i), false
				}
				i = SkipSpace(b, i+1)
			}
			valEnd, inner := Value(b, i, depth)
			if valEnd < 0 {
				return valEnd, false
			}
			if big = big || inner; visit != nil && c == '{' {
				visit(key, b[i:valEnd], plain)
			}
			switch i, next = Next(b, valEnd); next {
			case ',':
				i = SkipSpace(b, i+1)
			case closer:
				return i + 1, big
			default:
				return fail(b, i), false
			}
		}
	case 't', 'f', 'n':
		lit := "null"
		if c == 't' {
			lit = "true"
		} else if c == 'f' {
			lit = "false"
		}
		for n := 1; n < len(lit); n++ {
			if i+n >= len(b) || b[i+n] != lit[n] {
				return fail(b, i+n), false
			}
		}
		return i + len(lit), false
	default:
		return Number(b, i)
	}
}

// Number returns the index just past the JSON number that starts at b[i], or
// Malformed or Short: grammar only, no range, and what follows is the
// caller's to judge. big is as Value reports it.
func Number(b []byte, i int) (end int, big bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++ // a leading 0 is the whole integer part
	} else if i = digits(b, i); i < 0 {
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return i, false
		}
	}
	// Without an exponent, 300 characters stay below 1e300.
	big = i-start > 300
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, big = digits(b, i), true; i < 0 {
			return i, false
		}
	}
	return i, big
}

// digits returns the index past the run of decimal digits at b[i], Malformed
// or Short when there is none.
func digits(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return fail(b, i)
	}
	return i
}

const hexDigits = "0123456789abcdef"

// escapeOf says how json.Marshal writes an ASCII byte inside a string: 0 as
// it is, 'u' as \u00XX (control bytes and <, >, &), else after a backslash.
var escapeOf = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		if c < ' ' || c == '<' || c == '>' || c == '&' {
			t[c] = 'u'
		}
	}
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	return t
}()

// AppendString appends s quoted and escaped as json.Marshal does it.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	from := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			switch e := escapeOf[c]; e {
			case 0:
				continue
			case 'u':
				dst = append(append(dst, s[from:i-1]...), '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				dst = append(append(dst, s[from:i-1]...), '\\', e)
			}
			from = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[from:i-size]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[from:i-size]...), `\u202`...)
			dst = append(dst, hexDigits[r&0xf])
		default:
			continue
		}
		from = i
	}
	return append(append(dst, s[from:]...), '"')
}
