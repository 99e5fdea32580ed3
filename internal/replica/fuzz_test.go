package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"testing"
)

// walLine renders a valid framed WAL record the way the store writes one:
// what a frame's payload is, and what the follower verifies a second time.
func walLine(t testing.TB, id string, value []byte) []byte {
	payload, err := json.Marshal(map[string]any{
		"op": "put", "id": id, "doc": map[string]any{"_id": id, "v": string(value)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("#w1 %08x %s", crc32.ChecksumIEEE(payload), payload))
}

func sameFrame(a, b frame) bool {
	return a.epoch == b.epoch && a.seq == b.seq && a.collection == b.collection && bytes.Equal(a.inner, b.inner)
}

// FuzzParseFrames: the bytes of a frames request are the network's. Any of
// them must parse or be refused without a panic, and what parses must have
// passed both checks; a frame rendered by appendFrame parses back to what
// went in; and a rendered frame with any one byte changed is refused — the
// one change the outer checksum cannot see is the letter case of its own
// hex digits, which decodes to the same frame.
func FuzzParseFrames(f *testing.F) {
	valid := appendFrame(nil, 1, 1, "sessions", walLine(f, "seed", []byte("x")))
	f.Add(valid, uint64(1), uint64(1), []byte("x"), uint16(0), byte(1))
	f.Add(valid[:len(valid)/2], uint64(7), uint64(1<<40), []byte(`"\n#r1 `), uint16(9), byte(0x20))
	f.Add(append(append([]byte{}, valid...), valid...), uint64(1<<33), uint64(0), []byte{}, uint16(40), byte(0xff))
	f.Add([]byte("#r1 00000000 00000001 0000000000000001 sessions #w1 00000000 {}\n"), uint64(0), uint64(0), []byte{0xff, 0xfe}, uint16(4), byte(0x80))
	f.Add([]byte("\n\n  \n#r1 \n#r1 zzzzzzzz \n"), uint64(2), uint64(3), []byte("a b"), uint16(12), byte(3))
	f.Add(valid, uint64(2), uint64(3), []byte("00000000000000000fFfFfFfFfFfFfFfF"), uint16(12), byte(0))
	f.Add(valid, uint64(2), uint64(3), []byte("10000000000000000"), uint16(12), byte(0))
	f.Fuzz(func(t *testing.T, body []byte, epoch, seq uint64, value []byte, flipAt uint16, flipTo byte) {
		// Arbitrary bytes: no panic; accepted frames re-render to lines that
		// parse to themselves.
		if frames, err := parseFrames(body); err == nil {
			for _, fr := range frames {
				again, err := parseFrames(appendFrame(nil, fr.epoch, fr.seq, fr.collection, fr.inner))
				if err != nil || len(again) != 1 || !sameFrame(again[0], fr) {
					t.Fatalf("accepted frame %+v does not survive a re-render: %+v, %v", fr, again, err)
				}
			}
		}

		// A header field reads as strconv read it.
		std, stdErr := strconv.ParseUint(string(value), 16, 64)
		if hex, ok := parseHex(value); ok != (stdErr == nil) || ok && hex != std {
			t.Fatalf("parseHex(%q) = %x, %v; strconv: %x, %v", value, hex, ok, std, stdErr)
		}

		// A genuine frame round-trips.
		inner := walLine(t, "doc", value)
		line := appendFrame(nil, epoch, seq, "sessions", inner)
		want := frame{epoch: epoch, seq: seq, collection: "sessions", inner: inner}
		got, err := parseFrames(line)
		if err != nil || len(got) != 1 || !sameFrame(got[0], want) {
			t.Fatalf("round trip of %q: %+v, %v", line, got, err)
		}

		// One changed byte is refused (or, inside the checksum field, is the
		// same frame).
		if flipTo == 0 {
			return
		}
		at := int(flipAt) % (len(line) - 1) // the final newline is not part of the frame
		mangled := append([]byte(nil), line...)
		mangled[at] ^= flipTo
		got, err = parseFrames(mangled)
		if err != nil {
			return
		}
		const crcField = len(frameMagic) + 1
		if at < crcField || at >= crcField+8 || len(got) != 1 || !sameFrame(got[0], want) {
			t.Fatalf("byte %d of %q changed to %q and accepted as %+v", at, line, mangled[at], got)
		}
	})
}

// FuzzParseSnapshot: a snapshot body is sized sections, and the sizes are
// the only structure — section bytes that look like headers, newlines or
// other sections are payload. Arbitrary bytes must parse or be refused
// without a panic and without a section reaching outside the body; two
// rendered sections parse back to exactly their payloads whatever those
// contain; and a body cut short is refused rather than padded.
func FuzzParseSnapshot(f *testing.F) {
	f.Add([]byte("#rs1 sessions 3\nabc"), []byte("a"), []byte("b"))
	f.Add([]byte("#rs1 sessions 4\nabc"), []byte("#rs1 tests 100\n"), []byte("\n\n"))
	f.Add([]byte("#rs1 ../x 0\n"), []byte{}, []byte("#rs1 alpha 1\nz"))
	f.Add([]byte("#rs1 sessions -1\n"), []byte("#w1 00000000 {}\n"), []byte{0})
	f.Add([]byte("#rs1 sessions 99999999999999999999\n"), []byte("x"), []byte("y"))
	f.Add([]byte("\n\n#rs1 a 0\n#rs1 a 0\n"), []byte("p"), []byte("q"))
	f.Fuzz(func(t *testing.T, body, alpha, beta []byte) {
		if sections, err := parseSnapshot(body); err == nil {
			total := 0
			for _, wal := range sections {
				total += len(wal)
			}
			if total > len(body) {
				t.Fatalf("sections hold %d bytes of a %d-byte body", total, len(body))
			}
		}

		var rendered bytes.Buffer
		appendSnapshotSection(&rendered, "alpha", alpha)
		appendSnapshotSection(&rendered, "beta", beta)
		sections, err := parseSnapshot(rendered.Bytes())
		if err != nil || len(sections) != 2 || !bytes.Equal(sections["alpha"], alpha) || !bytes.Equal(sections["beta"], beta) {
			t.Fatalf("rendered sections %q / %q parsed to %q, %v", alpha, beta, sections, err)
		}
		if len(beta) > 0 {
			if cut, err := parseSnapshot(rendered.Bytes()[:rendered.Len()-1]); err == nil {
				t.Fatalf("a body one byte short of its declared size parsed to %q", cut)
			}
		}
	})
}
