package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"kaleidoscope/internal/jsonscan"
)

// The WAL record codec: one encoder for every record the store writes and
// one scan for the follower's check of every record it is shipped. Both are
// defined by encoding/json — the encoder writes json.Marshal(walRecord{...})
// byte for byte, the scan vouches only for lines parseWALLine accepts — and
// both hand anything outside the plain case back to it.

// maxNesting bounds the containers the encoder follows, the document being
// the first; a deeper document is json.Marshal's to write.
const maxNesting = 64

// appendRecord appends one framed WAL line, "#w1 <crc> <json>\n", to dst.
// Documents of JSON-shaped values (what Clone copies structurally) are
// written directly; any other value, or a number JSON cannot carry, sends the
// record through json.Marshal, so it is the same bytes or the same error.
func appendRecord(dst []byte, op, id string, doc Document) ([]byte, error) {
	return appendRecordLits(dst, op, id, doc, nil)
}

// literal locates, in the buffer appendRecordLits wrote to, the JSON literal
// of a top-level document value that may go cold: a string of at least
// coldMin bytes whose literal decodes back to it byte for byte, so valid
// UTF-8 (json.Marshal writes an invalid byte as U+FFFD).
type literal struct {
	key        string
	start, end int
}

// appendRecordLits is appendRecord that also appends to *lits (unless lits
// is nil) where each such value's literal sits in dst — none when
// json.Marshal writes the record.
func appendRecordLits(dst []byte, op, id string, doc Document, lits *[]literal) ([]byte, error) {
	start := len(dst)
	var found int
	if lits != nil {
		found = len(*lits)
	}
	dst = append(dst, frameMagic+" 00000000 "...)
	body := len(dst)
	dst = jsonscan.AppendString(append(dst, `{"op":`...), op)
	dst = jsonscan.AppendString(append(dst, `,"id":`...), id)
	plain := true
	if len(doc) > 0 { // walRecord.Doc is omitempty
		dst, plain = appendObject(append(dst, `,"doc":`...), doc, 1, lits)
	}
	if plain {
		dst = append(dst, '}')
	} else {
		if lits != nil {
			*lits = (*lits)[:found]
		}
		payload, err := json.Marshal(walRecord{Op: op, ID: id, Doc: doc})
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst[:body], payload...)
	}
	putChecksum(dst[body-9:body-1], dst[body:])
	return append(dst, '\n'), nil
}

// putChecksum writes payload's CRC into field as a frame spells it: eight
// lower-case hex digits.
func putChecksum(field, payload []byte) {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	hex.Encode(field, sum[:])
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
		return jsonscan.AppendString(dst, x), true
	case map[string]any:
		return appendObject(dst, x, depth, nil)
	case Document:
		return appendObject(dst, x, depth, nil)
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

// appendObject appends m with its keys in byte order, as json.Marshal does,
// and to *lits (when lits is not nil) the literal of each of its values that
// may go cold.
func appendObject(dst []byte, m map[string]any, depth int, lits *[]literal) (_ []byte, ok bool) {
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
		dst = append(jsonscan.AppendString(dst, k), ':')
		if s, str := m[k].(string); lits != nil && str && len(s) >= coldMin && utf8.ValidString(s) {
			at := len(dst)
			dst = jsonscan.AppendString(dst, s)
			*lits = append(*lits, literal{k, at, len(dst)})
			continue
		}
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

// scanRecord reports whether payload is a record in exactly the shape
// appendRecord writes — {"op":"put","id":<string>,"doc":<object>} or
// {"op":"del","id":<string>}, the envelope to the byte, a non-empty id, the
// document any JSON object whose numbers fit a float64 — for which
// parseWALLine's verdict is known to be lineOK. False means only that the scan
// will not vouch for the payload: respelled, reordered or repeated keys,
// whitespace in the envelope, a missing or null doc and invalid JSON are all
// left to parseWALLine to judge. The grammar is jsonscan's.
func scanRecord(p []byte) bool {
	const put, del = `{"op":"put","id":`, `{"op":"del","id":`
	isPut := bytes.HasPrefix(p, []byte(put))
	if !isPut && !bytes.HasPrefix(p, []byte(del)) {
		return false
	}
	i, _ := jsonscan.String(p, len(put))
	if i <= len(put)+2 { // invalid, or the empty id no record may have
		return false
	}
	if isPut {
		const doc = `,"doc":{`
		if !bytes.HasPrefix(p[i:], []byte(doc)) {
			return false
		}
		start := i + len(doc) - 1
		end, big := jsonscan.Value(p, start, 1)
		if end < 0 || big && !numbersFit(p[start:end]) {
			return false
		}
		i = end
	}
	return i == len(p)-1 && p[i] == '}'
}

// numbersFit reports whether every number in v, a value jsonscan has vouched
// for, parses into a float64. Replay decodes a document's numbers so and
// refuses the record when one overflows: 1e999 is valid JSON and not a valid
// record. Only a number jsonscan calls big can, so only a document with one
// is walked.
func numbersFit(v []byte) bool {
	for i := 0; i < len(v); {
		switch c := v[i]; {
		case c == '"':
			if i, _ = jsonscan.String(v, i); i < 0 {
				return false
			}
		case c == '-' || '0' <= c && c <= '9':
			end, _ := jsonscan.Number(v, i)
			if _, err := strconv.ParseFloat(string(v[i:max(i, end)]), 64); err != nil {
				return false // out of range; or end is -1 and there is no number
			}
			i = end
		default:
			i++
		}
	}
	return true
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
