package store

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The WAL record codec: one encoder for every record the store writes and
// one scan for the follower's check of every record it is shipped. Both are
// defined by encoding/json — the encoder writes json.Marshal(walRecord{...})
// byte for byte, the scan vouches only for lines parseWALLine accepts — and
// both hand anything outside the plain case back to it.

// maxNesting bounds the containers a record may nest on the codec's own
// paths, the document being the first; deeper documents are encoding/json's.
const maxNesting = 64

// appendRecord appends one framed WAL line, "#w1 <crc> <json>\n", to dst.
// Documents of JSON-shaped values (what Clone copies structurally) are
// written directly; any other value, or a number JSON cannot carry, sends the
// record through json.Marshal, so it is the same bytes or the same error.
func appendRecord(dst []byte, op, id string, doc Document) ([]byte, error) {
	start := len(dst)
	dst = append(dst, frameMagic+" 00000000 "...)
	body := len(dst)
	dst = appendString(append(dst, `{"op":`...), op)
	dst = appendString(append(dst, `,"id":`...), id)
	plain := true
	if len(doc) > 0 { // walRecord.Doc is omitempty
		dst, plain = appendObject(append(dst, `,"doc":`...), doc, 1)
	}
	if plain {
		dst = append(dst, '}')
	} else {
		payload, err := json.Marshal(walRecord{Op: op, ID: id, Doc: doc})
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst[:body], payload...)
	}
	putChecksum(dst[body-9:body-1], dst[body:])
	return append(dst, '\n'), nil
}

const hexDigits = "0123456789abcdef"

// putChecksum writes payload's CRC into field as a frame spells it: eight
// lower-case hex digits.
func putChecksum(field, payload []byte) {
	sum := crc32.ChecksumIEEE(payload)
	for i := 7; i >= 0; i-- {
		field[i] = hexDigits[sum&0xf]
		sum >>= 4
	}
}

// appendValue appends v, which as a container would be the depth-th nested,
// as json.Marshal writes it; ok is false for a value that is json.Marshal's
// to encode or to refuse.
func appendValue(dst []byte, v any, depth int) (_ []byte, ok bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), true
	case bool:
		return strconv.AppendBool(dst, x), true
	case float64:
		return appendFloat(dst, x)
	case string:
		return appendString(dst, x), true
	case map[string]any:
		return appendObject(dst, x, depth)
	case Document:
		return appendObject(dst, x, depth)
	case []any:
		if x == nil {
			return append(dst, "null"...), true
		}
		if depth > maxNesting {
			return dst, false
		}
		dst = append(dst, '[')
		for i, e := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendValue(dst, e, depth+1); !ok {
				return dst, false
			}
		}
		return append(dst, ']'), true
	default:
		return dst, false
	}
}

// appendObject appends m with its keys in byte order, as json.Marshal does.
func appendObject(dst []byte, m map[string]any, depth int) (_ []byte, ok bool) {
	if m == nil {
		return append(dst, "null"...), true
	}
	if depth > maxNesting {
		return dst, false
	}
	var few [16]string // keeps a small object's keys off the heap
	keys := few[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendString(dst, k), ':')
		if dst, ok = appendValue(dst, m[k], depth+1); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// appendFloat is encoding/json's float64 text: shortest digits, exponent
// form below 1e-6 and from 1e21, a one-digit exponent unpadded.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 is written e-9
		dst = dst[:n-1]
	}
	return dst, true
}

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

// appendString appends s quoted and escaped as json.Marshal does it.
func appendString(dst []byte, s string) []byte {
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

// scanRecord reports whether payload is a record in exactly the shape
// appendRecord writes — {"op":"put","id":<string>,"doc":<object>} or
// {"op":"del","id":<string>}, a non-empty id, strict JSON within, no
// whitespace — for which parseWALLine's verdict is known to be lineOK. False
// means only that the scan will not vouch for the payload: respelled,
// reordered or repeated keys, a missing or null doc, deep nesting and invalid
// JSON are all left to parseWALLine to judge.
func scanRecord(p []byte) bool {
	const put, del = `{"op":"put","id":`, `{"op":"del","id":`
	isPut := bytes.HasPrefix(p, []byte(put))
	if !isPut && !bytes.HasPrefix(p, []byte(del)) {
		return false
	}
	i := scanString(p, len(put))
	if i <= len(put)+2 { // invalid, or the empty id no record may have
		return false
	}
	if isPut {
		const doc = `,"doc":{`
		if !bytes.HasPrefix(p[i:], []byte(doc)) {
			return false
		}
		if i = scanValue(p, i+len(doc)-1, 1); i < 0 {
			return false
		}
	}
	return i == len(p)-1 && p[i] == '}'
}

// scanValue returns the index just past the JSON value that starts at p[i],
// or -1 when the bytes there are not one the scan vouches for.
func scanValue(p []byte, i, depth int) int {
	if i >= len(p) {
		return -1
	}
	switch c := p[i]; c {
	case '"':
		return scanString(p, i)
	case '{', '[':
		if depth > maxNesting {
			return -1
		}
		if i++; i < len(p) && p[i] == c+2 { // '}' and ']' are their openers + 2
			return i + 1
		}
		for {
			if c == '{' {
				if i = scanString(p, i); i < 0 || i >= len(p) || p[i] != ':' {
					return -1
				}
				i++
			}
			if i = scanValue(p, i, depth+1); i < 0 || i >= len(p) {
				return -1
			}
			switch p[i] {
			case ',':
				i++
			case c + 2:
				return i + 1
			default:
				return -1
			}
		}
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if bytes.HasPrefix(p[i:], []byte(lit)) {
				return i + len(lit)
			}
		}
		return -1
	default:
		return scanNumber(p, i)
	}
}

// scanString returns the index just past the JSON string whose opening
// quote is p[i], or -1. Bytes that are not valid UTF-8 pass, as they do
// through encoding/json (which decodes them to U+FFFD).
func scanString(p []byte, i int) int {
	if i >= len(p) || p[i] != '"' {
		return -1
	}
	for i++; i < len(p); i++ {
		switch c := p[i]; {
		case c == '"':
			return i + 1
		case c < ' ':
			return -1
		case c == '\\':
			if i++; i >= len(p) {
				return -1
			}
			switch p[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(p) || !isHex(p[i+1]) || !isHex(p[i+2]) || !isHex(p[i+3]) || !isHex(p[i+4]) {
					return -1
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f'
}

// scanNumber returns the index just past the JSON number at p[i], or -1.
// Replay parses a document's numbers into float64 and refuses the record
// when one overflows (1e999 is valid JSON and not a valid record), so a
// number that is not plainly in range is put to strconv as replay would.
func scanNumber(p []byte, i int) int {
	start := i
	if p[i] == '-' {
		i++
	}
	digits := func() bool {
		from := i
		for i < len(p) && '0' <= p[i] && p[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(p) && p[i] == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if i < len(p) && p[i] == '.' {
		if i++; !digits() {
			return -1
		}
	}
	// Without an exponent, 300 characters stay below 1e300.
	plain := i-start <= 300
	if i < len(p) && p[i]|0x20 == 'e' {
		plain = false
		if i++; i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	if !plain {
		if _, err := strconv.ParseFloat(string(p[start:i]), 64); err != nil {
			return -1
		}
	}
	return i
}

// scanFramed is the follower's check of a framed line, the magic cut off:
// the checksum field is the payload's, spelled as appendRecord spells it,
// and — looked at only then — the payload is one scanRecord vouches for.
func scanFramed(rest []byte) bool {
	if len(rest) < 9 || rest[8] != ' ' {
		return false
	}
	var want [8]byte
	putChecksum(want[:], rest[9:])
	return bytes.Equal(rest[:8], want[:]) && scanRecord(rest[9:])
}
