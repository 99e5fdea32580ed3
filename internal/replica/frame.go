package replica

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/bits"
	"strconv"

	"kaleidoscope/internal/store"
)

// Replication wire format. A shipped WAL record travels as one outer line:
//
//	#r1 <crc32-ieee hex8> <epoch hex8> <seq hex16> <collection> <inner>
//
// where <inner> is the record's framed WAL line (#w1 ...) byte-for-byte as
// it was written to the primary's disk, and the outer checksum covers
// everything after the "crc " field. The epoch rides on every frame — not
// just the request — so a frame replayed out of context (a proxy retry, a
// buffered send from a deposed primary) still carries the term it was
// minted in and can be rejected on its own evidence. The inner line keeps
// its own CRC, so a follower appends exactly the bytes a healthy primary
// would have written, verified twice.
const (
	frameMagic = "#r1"
	// snapMagic heads one collection section of a snapshot body:
	//	#rs1 <collection> <size>\n
	// followed by exactly size raw bytes of that collection's WAL file.
	snapMagic = "#rs1"
)

// frame is one decoded replication record.
type frame struct {
	epoch      uint64
	seq        uint64
	collection string
	inner      []byte // the framed WAL line, no trailing newline
}

// frameOverhead is what framing adds to an inner line, collection name
// apart: magic, checksum, epoch and sequence fields with their separators
// (epochs past 32 bits print wider; append grows the buffer then).
const frameOverhead = len(frameMagic) + 1 + 8 + 1 + 8 + 1 + 16 + 1 + 1

// appendFrame renders one outer line (with trailing newline) onto dst and
// returns the extended slice.
func appendFrame(dst []byte, epoch, seq uint64, collection string, inner []byte) []byte {
	dst = append(dst, frameMagic...)
	dst = append(dst, ' ')
	// The checksum covers everything after its own field, so leave a gap
	// and fill it once the rest of the line is in place.
	crcAt := len(dst)
	dst = append(dst, "00000000 "...)
	body := len(dst)
	dst = appendHex(dst, epoch, 8)
	dst = append(dst, ' ')
	dst = appendHex(dst, seq, 16)
	dst = append(dst, ' ')
	dst = append(dst, collection...)
	dst = append(dst, ' ')
	dst = append(dst, inner...)
	appendHex(dst[crcAt:crcAt], uint64(crc32.ChecksumIEEE(dst[body:])), 8)
	return append(dst, '\n')
}

// appendHex appends v in lower-case hex, zero-padded to width digits (%0*x).
func appendHex(dst []byte, v uint64, width int) []byte {
	for digits := (bits.Len64(v|1) + 3) / 4; digits < width; digits++ {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, v, 16)
}

// parseFrame decodes one outer line (no trailing newline), cutting its fields
// where they lie. prev is the collection of the frame before: a request's
// frames nearly all name one collection, and share its string.
func parseFrame(line []byte, prev string) (frame, error) {
	var f frame
	rest, ok := bytes.CutPrefix(line, []byte(frameMagic+" "))
	if !ok {
		return f, fmt.Errorf("replica: line missing %s frame", frameMagic)
	}
	// <crc8> <epoch8> <seq16> <collection> <inner>
	if len(rest) < 8+1 {
		return f, fmt.Errorf("replica: truncated frame")
	}
	crcField, body := rest[:8], rest[8:]
	if len(body) == 0 || body[0] != ' ' {
		return f, fmt.Errorf("replica: malformed frame header")
	}
	body = body[1:]
	want, ok := parseHex(crcField)
	if !ok {
		return f, fmt.Errorf("replica: bad frame checksum field")
	}
	if uint64(crc32.ChecksumIEEE(body)) != want {
		return f, fmt.Errorf("replica: frame checksum mismatch")
	}
	epoch, body, ok1 := bytes.Cut(body, []byte(" "))
	seq, body, ok2 := bytes.Cut(body, []byte(" "))
	name, inner, ok3 := bytes.Cut(body, []byte(" "))
	if !ok1 || !ok2 || !ok3 {
		return f, fmt.Errorf("replica: malformed frame body")
	}
	if f.epoch, ok = parseHex(epoch); !ok {
		return f, fmt.Errorf("replica: bad frame epoch")
	}
	if f.seq, ok = parseHex(seq); !ok {
		return f, fmt.Errorf("replica: bad frame seq")
	}
	f.collection = prev
	if string(name) != prev {
		f.collection = string(name)
	}
	if !store.ValidCollectionName(f.collection) {
		return f, fmt.Errorf("replica: invalid collection name %q", f.collection)
	}
	f.inner = inner
	if err := store.VerifyWALLine(f.inner); err != nil {
		return f, fmt.Errorf("replica: frame payload: %w", err)
	}
	return f, nil
}

// parseHex reads what strconv.ParseUint(s, 16, 64) accepts: one or more hex
// digits of either case whose value fits.
func parseHex(b []byte) (v uint64, ok bool) {
	for _, c := range b {
		switch {
		case v>>60 != 0:
			return 0, false
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			v = v<<4 | uint64(c|0x20-'a'+10)
		default:
			return 0, false
		}
	}
	return v, len(b) > 0
}

// parseFrames decodes a whole request body: one frame per line, blank lines
// ignored. Any bad line rejects the lot — a follower applies a request
// atomically or not at all.
func parseFrames(body []byte) ([]frame, error) {
	var out []frame
	prev := ""
	for len(body) > 0 {
		var line []byte
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			line, body = body[:nl], body[nl+1:]
		} else {
			line, body = body, nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		f, err := parseFrame(line, prev)
		if err != nil {
			return nil, err
		}
		out, prev = append(out, f), f.collection
	}
	return out, nil
}

// appendSnapshotSection renders one collection section of a snapshot body.
func appendSnapshotSection(dst *bytes.Buffer, collection string, wal []byte) {
	fmt.Fprintf(dst, "%s %s %d\n", snapMagic, collection, len(wal))
	dst.Write(wal)
}

// parseSnapshot decodes a snapshot body into collection → raw WAL bytes.
func parseSnapshot(body []byte) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			if len(bytes.TrimSpace(body)) == 0 {
				break
			}
			return nil, fmt.Errorf("replica: truncated snapshot header")
		}
		header := body[:nl]
		body = body[nl+1:]
		if len(bytes.TrimSpace(header)) == 0 {
			continue
		}
		fields := bytes.Split(header, []byte(" "))
		if len(fields) != 3 || string(fields[0]) != snapMagic {
			return nil, fmt.Errorf("replica: malformed snapshot header %q", header)
		}
		name := string(fields[1])
		if !store.ValidCollectionName(name) {
			return nil, fmt.Errorf("replica: invalid snapshot collection %q", name)
		}
		size, err := strconv.Atoi(string(fields[2]))
		if err != nil || size < 0 {
			return nil, fmt.Errorf("replica: bad snapshot section size")
		}
		if size > len(body) {
			return nil, fmt.Errorf("replica: snapshot section %s truncated (%d > %d bytes)", name, size, len(body))
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("replica: duplicate snapshot section %s", name)
		}
		out[name] = body[:size]
		body = body[size:]
	}
	return out, nil
}
