package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The oracles. frameRecord over json.Marshal(walRecord{...}) is the encoder
// the store had before appendRecord, and verifyWALLineJSON the follower's
// check before scanRecord; both are kept as they were, and the codec is held
// to them byte for byte and verdict for verdict.

// frameRecord renders one framed WAL line (with trailing newline).
func frameRecord(payload []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(frameMagic) + 1 + 8 + 1 + len(payload) + 1)
	b.WriteString(frameMagic)
	b.WriteByte(' ')
	fmt.Fprintf(&b, "%08x", crc32.ChecksumIEEE(payload))
	b.WriteByte(' ')
	b.Write(payload)
	b.WriteByte('\n')
	return b.Bytes()
}

func marshalRecord(op, id string, doc Document) ([]byte, error) {
	payload, err := json.Marshal(walRecord{Op: op, ID: id, Doc: doc})
	if err != nil {
		return nil, err
	}
	return frameRecord(payload), nil
}

func verifyWALLineJSON(line []byte) error {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 {
		return fmt.Errorf("store: empty WAL line")
	}
	if bytes.IndexByte(trimmed, '\n') >= 0 {
		return fmt.Errorf("store: WAL line contains newline")
	}
	if !bytes.HasPrefix(trimmed, []byte(frameMagic+" ")) {
		return fmt.Errorf("store: WAL line missing %s frame", frameMagic)
	}
	switch _, class := parseWALLine(trimmed); class {
	case lineOK:
		return nil
	case lineTorn:
		return fmt.Errorf("store: WAL line fails frame checksum or decode")
	default:
		return fmt.Errorf("store: WAL line is semantically invalid")
	}
}

// framed is frameRecord without the newline: a line as the follower sees it.
func framed(payload string) []byte {
	return bytes.TrimSuffix(frameRecord([]byte(payload)), []byte("\n"))
}

// payloadOf returns what follows a framed line's checksum field.
func payloadOf(line []byte) []byte {
	rest, ok := bytes.CutPrefix(bytes.TrimSpace(line), []byte(frameMagic+" "))
	if !ok || len(rest) < 9 {
		return nil
	}
	return rest[9:]
}

// upperCRC respells a framed line's checksum field in upper case.
func upperCRC(line []byte) []byte {
	copy(line[4:12], bytes.ToUpper(line[4:12]))
	return line
}

// nested returns `{"a":{"a":...1...}}` with depth objects.
func nested(depth int) string {
	return strings.Repeat(`{"a":`, depth) + "1" + strings.Repeat("}", depth)
}

// sessionDoc is the document the server stores per session, the shape the
// benchmark writes: three short strings and a ~600-byte JSON text.
func sessionDoc(i int) Document {
	worker := "w" + strconv.Itoa(i)
	var s strings.Builder
	fmt.Fprintf(&s, `{"test_id":"bench-test","worker_id":%q,"demographics":{"gender":"f","age_band":"25-34","country":"DE","tech_ability":4},"responses":[`, worker)
	for q := 0; q < 3; q++ {
		if q > 0 {
			s.WriteByte(',')
		}
		fmt.Fprintf(&s, `{"test_id":"bench-test","worker_id":%q,"page_id":"pair-0-1","question_id":"q%d","choice":"left","duration_millis":%d}`, worker, q, 4000+i%100)
	}
	s.WriteString(`],"behaviors":[{"TimeOnTaskMillis":9100,"CreatedTabs":1,"ActiveTabSwitches":2}],"controls":[{"page_id":"control-same","expected":"same","got":"same"}]}`)
	return Document{
		IDField:     "bench-test/" + worker,
		"test_id":   "bench-test",
		"worker_id": worker,
		"session":   s.String(),
	}
}

// wireCases are lines with a known verdict; fast says the scan vouches for
// the line itself instead of sending it to parseWALLine. They seed the fuzz
// targets too.
var wireCases = []struct {
	name     string
	line     []byte
	ok, fast bool
}{
	{"put", framed(`{"op":"put","id":"a","doc":{"_id":"a","v":1}}`), true, true},
	{"del", framed(`{"op":"del","id":"a"}`), true, true},
	{"empty doc", framed(`{"op":"put","id":"a","doc":{}}`), true, true},
	{"escapes and html", framed(`{"op":"put","id":"aé\"\\\/","doc":{"<>&":"<>& é 😀 \ud800 \n"}}`), true, true},
	{"u+2028 raw", framed("{\"op\":\"put\",\"id\":\"a\",\"doc\":{\"k\":\"\u2028\u2029\"}}"), true, true},
	{"invalid utf-8", framed("{\"op\":\"put\",\"id\":\"\xff\",\"doc\":{\"\xff\":\"\xc3\"}}"), true, true},
	{"every value", framed(`{"op":"put","id":"a","doc":{"a":[1,-0,0.5,1e21,1E-7,2.5e+300,true,false,null,[],{}],"b":{"c":[[]]}}}`), true, true},
	{"negative zero", framed(`{"op":"put","id":"a","doc":{"v":-0}}`), true, true},
	{"300 digits", framed(`{"op":"put","id":"a","doc":{"v":` + strings.Repeat("9", 300) + `}}`), true, true},
	{"repeated doc key", framed(`{"op":"put","id":"a","doc":{"k":1,"k":2}}`), true, true},
	{"trailing cr", append(framed(`{"op":"del","id":"a"}`), '\r'), true, true},
	{"64 deep", framed(`{"op":"put","id":"a","doc":` + nested(64) + `}`), true, true},
	{"65 deep", framed(`{"op":"put","id":"a","doc":` + nested(65) + `}`), true, true},
	{"encoding/json's depth", framed(`{"op":"put","id":"a","doc":` + nested(9999) + `}`), true, true},
	{"a level past it", framed(`{"op":"put","id":"a","doc":` + nested(10000) + `}`), false, false},
	{"whitespace in the doc", framed(`{"op":"put","id":"a","doc":{ "_id" : "a" , "v" : [ 1 , 2 ] }}`), true, true},
	{"upper-case crc", upperCRC(framed(`{"op":"del","id":"a"}`)), true, false},
	{"whitespace", framed(`{"op": "put", "id": "a", "doc": {"_id": "a"}}`), true, false},
	{"reordered", framed(`{"id":"a","op":"del"}`), true, false},
	{"repeated op", framed(`{"op":"explode","op":"del","id":"a"}`), true, false},
	{"case-variant key", framed(`{"OP":"del","id":"a"}`), true, false},
	{"escaped key", framed(`{"\u006fp":"del","id":"a"}`), true, false},
	{"del with doc", framed(`{"op":"del","id":"a","doc":{"x":1}}`), true, false},
	{"400 digits", framed(`{"op":"put","id":"a","doc":{"v":` + strings.Repeat("9", 400) + `}}`), false, false},
	{"1e999", framed(`{"op":"put","id":"a","doc":{"v":1e999}}`), false, false},
	{"-1e999 nested", framed(`{"op":"put","id":"a","doc":{"v":[{"w":-1E+999}]}}`), false, false},
	{"null doc", framed(`{"op":"put","id":"a","doc":null}`), false, false},
	{"no doc", framed(`{"op":"put","id":"a"}`), false, false},
	{"array doc", framed(`{"op":"put","id":"a","doc":[1]}`), false, false},
	{"empty id", framed(`{"op":"put","id":"","doc":{"_id":""}}`), false, false},
	{"unknown op", framed(`{"op":"explode","id":"a"}`), false, false},
	{"bad escape", framed(`{"op":"del","id":"\x"}`), false, false},
	{"short \\u", framed(`{"op":"del","id":"\u12"}`), false, false},
	{"raw control byte", framed("{\"op\":\"del\",\"id\":\"a\tb\"}"), false, false},
	{"leading zero", framed(`{"op":"put","id":"a","doc":{"v":01}}`), false, false},
	{"bare minus", framed(`{"op":"put","id":"a","doc":{"v":-}}`), false, false},
	{"trailing comma", framed(`{"op":"put","id":"a","doc":{"v":1,}}`), false, false},
	{"trailing bytes", framed(`{"op":"del","id":"a"}}`), false, false},
	{"unterminated", framed(`{"op":"put","id":"a","doc":{"v":"x`), false, false},
	{"embedded newline", framed("{\"op\":\"del\",\n\"id\":\"a\"}"), false, false},
	{"bad crc", []byte(`#w1 deadbeef {"op":"del","id":"a"}`), false, false},
	{"short crc", []byte(`#w1 dead {"op":"del","id":"a"}`), false, false},
	{"no payload", []byte(`#w1 00000000 `), false, false},
	{"legacy unframed", []byte(`{"op":"del","id":"a"}`), false, false},
	{"blank", []byte(" \t"), false, false},
}

// checkVerifyWALLine holds VerifyWALLine to its oracle on one line and
// reports whether the line was accepted.
func checkVerifyWALLine(t *testing.T, line []byte) bool {
	t.Helper()
	got, want := VerifyWALLine(line), verifyWALLineJSON(line)
	if (got == nil) != (want == nil) {
		t.Fatalf("VerifyWALLine(%q) = %v, encoding/json says %v", line, got, want)
	}
	if got != nil {
		if got.Error() != want.Error() {
			t.Fatalf("VerifyWALLine(%q) refuses with %q, want %q", line, got, want)
		}
		return false
	}
	// Whatever path accepted it, the checksum field is the payload's.
	trimmed := bytes.TrimSpace(line)
	sum, err := strconv.ParseUint(string(trimmed[len(frameMagic)+1:][:8]), 16, 32)
	if err != nil || uint32(sum) != crc32.ChecksumIEEE(payloadOf(line)) {
		t.Fatalf("VerifyWALLine accepted %q, whose checksum field is not its payload's", line)
	}
	return true
}

func TestVerifyWALLineCases(t *testing.T) {
	for _, c := range wireCases {
		if got := checkVerifyWALLine(t, c.line); got != c.ok {
			t.Errorf("%s: accepted = %v, want %v (%q)", c.name, got, c.ok, c.line)
		}
		rest, isFramed := bytes.CutPrefix(bytes.TrimSpace(c.line), []byte(frameMagic+" "))
		if fast := isFramed && scanFramed(rest); fast != c.fast {
			t.Errorf("%s: taken by the scan = %v, want %v (%q)", c.name, fast, c.fast, c.line)
		}
	}
}

// TestStoreRecordsTakeTheScan: what the store really writes — the benchmark's
// session document, a delete, strings that need every kind of escape — is
// vouched for by the scan, with no second decode.
func TestStoreRecordsTakeTheScan(t *testing.T) {
	records := []struct {
		op, id string
		doc    Document
	}{
		{"put", "bench-test/w7", sessionDoc(7)},
		{"del", "bench-test/w7", nil},
		{"put", "é<>& \xff\"\\\x00", Document{IDField: "x", "<&>": "a b\x7f\xc3(", "list": []any{1.5, nil, "\t😀", map[string]any{"deep": Document{}}}}},
	}
	for _, r := range records {
		line, err := appendRecord(nil, r.op, r.id, r.doc)
		if err != nil {
			t.Fatal(err)
		}
		if !scanFramed(line[len(frameMagic)+1 : len(line)-1]) {
			t.Errorf("the scan does not vouch for %q", line)
		}
		if !checkVerifyWALLine(t, line) {
			t.Errorf("refused: %q", line)
		}
	}
}

func FuzzVerifyWALLine(f *testing.F) {
	for _, c := range wireCases {
		f.Add(c.line, payloadOf(framed(`{"op":"del","id":"a"}`)), uint16(0), byte(0))
		if bytes.HasPrefix(c.line, []byte(frameMagic+" ")) && len(c.line) > 13 {
			f.Add([]byte("#w1"), payloadOf(c.line), uint16(len(c.line)/2), byte(0x20))
		}
	}
	f.Fuzz(func(t *testing.T, line, payload []byte, flipAt uint16, flipTo byte) {
		// Arbitrary bytes, a correctly framed arbitrary payload (mutation
		// alone almost never finds a checksum), and that frame with one byte
		// changed.
		checkVerifyWALLine(t, line)
		good := frameRecord(payload)
		checkVerifyWALLine(t, good)
		checkVerifyWALLine(t, good[:len(good)-1])
		good[int(flipAt)%len(good)] ^= flipTo
		checkVerifyWALLine(t, good)
	})
}

// checkScanWAL holds one file's replay to scanWAL's contract: every
// non-blank line is a good line, a quarantined line or the one torn tail, and
// every record returned is one parseWALLine (and, framed, the follower's
// check) accepts again.
func checkScanWAL(t *testing.T, data []byte) {
	t.Helper()
	rep := scanWAL(data)
	var lines [][]byte
	lastStart := int64(-1)
	for off, rest := int64(0), data; len(rest) > 0; {
		line := rest
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line = rest[:nl]
		}
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
			lastStart = off
		}
		off += int64(len(line)) + 1
		rest = rest[min(len(line)+1, len(rest)):]
	}
	torn := 0
	if rep.truncateAt >= 0 {
		torn = 1
		if rep.truncateAt != lastStart {
			t.Fatalf("torn tail at %d, the last line starts at %d: %q", rep.truncateAt, lastStart, data)
		}
	}
	if len(rep.goodLines)+len(rep.quarantined)+torn != len(lines) || len(rep.records) != len(rep.goodLines) {
		t.Fatalf("%d lines became %d good (%d records), %d quarantined, %d torn: %q",
			len(lines), len(rep.goodLines), len(rep.records), len(rep.quarantined), torn, data)
	}
	for i, line := range rep.goodLines {
		rec, class := parseWALLine(bytes.TrimSpace(line))
		if class != lineOK || rec.ID != rep.records[i].ID || rec.Op != rep.records[i].Op {
			t.Fatalf("good line %q re-parses as class %d, %+v", line, class, rec)
		}
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte(frameMagic+" ")) && !checkVerifyWALLine(t, line) {
			t.Fatalf("replayed line %q is refused by the follower's check", line)
		}
	}
}

func FuzzScanWAL(f *testing.F) {
	for _, c := range wireCases {
		f.Add(append(c.line, '\n'), []byte(`{"op":"del","id":"a"}`), uint16(7))
	}
	f.Add([]byte("\n\n#w1 \n{\n"), []byte(`{"op":"put","id":"b","doc":{"_id":"b"}}`), uint16(20))
	f.Fuzz(func(t *testing.T, data, payload []byte, cut uint16) {
		checkScanWAL(t, data)
		// The same bytes between two framed records, the second cut short.
		tail := frameRecord(payload)
		file := append(append(frameRecord(payload), data...), '\n')
		checkScanWAL(t, append(file, tail[:int(cut)%len(tail)]...))
	})
}

// nesting is how many containers deep v goes.
func nesting(v any) int {
	deepest := 0
	switch x := v.(type) {
	case map[string]any:
		for _, e := range x {
			deepest = max(deepest, nesting(e))
		}
	case Document:
		return nesting(map[string]any(x))
	case []any:
		for _, e := range x {
			deepest = max(deepest, nesting(e))
		}
	default:
		return 0
	}
	return deepest + 1
}

// checkAppendRecord holds appendRecord to its oracle on one record: the same
// bytes after whatever dst held, an error exactly when json.Marshal has one
// (the same one, dst untouched), and — for a document of JSON-shaped values —
// a line the follower's scan vouches for without a second decode.
func checkAppendRecord(t *testing.T, op, id string, doc Document, jsonShaped bool) {
	t.Helper()
	const before = "earlier frames\n"
	want, wantErr := marshalRecord(op, id, doc)
	got, err := appendRecord([]byte(before), op, id, doc)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("appendRecord(%q, %q, %#v): error %v, json.Marshal's %v", op, id, doc, err, wantErr)
	}
	if string(got) != before+string(want) {
		t.Fatalf("appendRecord(%q, %q, %#v)\n got %q\nwant %q", op, id, doc, got, before+string(want))
	}
	if err != nil {
		return
	}
	line := got[len(before):]
	accepted := checkVerifyWALLine(t, line)
	if (op != "put" && op != "del") || id == "" || (op == "put" && len(doc) == 0) {
		if accepted {
			t.Fatalf("a record no replay would apply is accepted: %q", line)
		}
		return
	}
	if !jsonShaped {
		return // json.Number("1e999") marshals, and is no record
	}
	if !accepted {
		t.Fatalf("the store's own record is refused: %q", line)
	}
	if nesting(doc) <= maxNesting && !scanFramed(line[len(frameMagic)+1:len(line)-1]) {
		t.Fatalf("the scan does not vouch for the encoder's own output %q", line)
	}
}

func FuzzAppendRecord(f *testing.F) {
	f.Add("a", []byte(`{"_id":"a","v":[1,2.5,{"k":null}]}`), "<>& \xff", 1e21, byte(0))
	f.Add("é", []byte(nested(64)), "\x00\x1f\"\\", math.Copysign(0, -1), byte(0))
	f.Add("", []byte(nested(65)), "\u2029", 1e-7, byte(1))
	f.Add("x", []byte(`{}`), "12", math.MaxFloat64, byte(2))
	f.Add("x", []byte(`{"a":1e300}`), "1e999", 5e-324, byte(3))
	f.Add("x", []byte(`not json`), "\xed\xa0\x80", math.Inf(1), byte(4))
	f.Add("x", []byte(`{"session":"{\"k\":\"v\"}"}`), "", 123456789.0, byte(0x85))
	f.Fuzz(func(t *testing.T, id string, docJSON []byte, raw string, num float64, odd byte) {
		var doc Document
		if json.Unmarshal(docJSON, &doc) != nil || doc == nil {
			doc = Document{}
		}
		doc[raw] = []any{raw, num, nil, true, map[string]any{raw: Document{"n": -num}}}
		jsonShaped := !math.IsNaN(num) && !math.IsInf(num, 0)
		// The low bits add a value Clone does not enumerate, so the record
		// is json.Marshal's to write or refuse.
		if extra, isExtra := map[byte]any{
			1: json.Number(raw), 2: float32(num), 3: struct{ A, b int }{1, 2}, 4: int64(num),
			5: []string{raw}, 6: make(chan int), 7: map[string]any(nil), 8: []any(nil), 9: Document(nil),
		}[odd&0x0f]; isExtra {
			doc["extra"] = []any{extra}
			jsonShaped = jsonShaped && odd&0x0f >= 7
		}
		op := "put"
		if odd&0x80 != 0 {
			op, doc = "del", nil
			jsonShaped = true
		}
		checkAppendRecord(t, op, id, doc, jsonShaped)
	})
}

var recordSeed = flag.Int64("record.seed", 0, "replay one seed of TestAppendRandomRecords")

// randomString and randomRecordValue draw a document dense in the hard
// cases: keys and strings that need every escape, numbers at every format
// boundary, nil containers, and now and then a value that is not JSON-shaped.
func randomString(r *rand.Rand) string {
	strs := []string{"", "a", "_id", "plain ascii text", `"quoted"`, `back\slash`, "<script>&amp;</script>",
		"tab\there", "\x00\x01\x1f\x7f", "\b\f\n\r", "é", "日本語", "😀", "\u2028", "x\u2029y", "\xff", "a\xc3", "\xed\xa0\x80", "\ufffd"}
	s := strs[r.Intn(len(strs))]
	if r.Intn(3) == 0 {
		s += strs[r.Intn(len(strs))]
	}
	return s
}

func randomRecordValue(r *rand.Rand, depth int, jsonShaped *bool) any {
	switch k := r.Intn(14); {
	case k < 3:
		return randomString(r)
	case k < 6:
		nums := []float64{0, math.Copysign(0, -1), 1, -1, 42, 0.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e21, 1e22,
			-1e-9, 1e100, 1e-100, math.MaxFloat64, -math.MaxFloat64, 5e-324, math.MaxInt64, 1 << 53, 123456.789}
		if r.Intn(3) == 0 {
			return r.NormFloat64() * math.Pow(10, float64(r.Intn(80)-40))
		}
		return nums[r.Intn(len(nums))]
	case k == 6:
		return r.Intn(2) == 0
	case k == 7:
		return nil
	case k < 11 && depth < 6:
		m := make(map[string]any)
		for n := r.Intn(5); n > 0; n-- {
			m[randomString(r)] = randomRecordValue(r, depth+1, jsonShaped)
		}
		if r.Intn(2) == 0 {
			return Document(m)
		}
		return m
	case k < 13 && depth < 6:
		list := make([]any, r.Intn(4))
		for i := range list {
			list[i] = randomRecordValue(r, depth+1, jsonShaped)
		}
		return list
	case r.Intn(3) > 0:
		return [...]any{map[string]any(nil), []any(nil), Document(nil)}[r.Intn(3)]
	default:
		*jsonShaped = false
		return [...]any{7, int64(-7), uint8(7), float32(0.1), json.Number("1e3"), json.Number("nope"),
			math.NaN(), math.Inf(-1), []string{"a"}, struct{ A int }{1}, map[string]string{"a": "b"}}[r.Intn(11)]
	}
}

// TestAppendRandomRecords holds the encoder to FuzzAppendRecord's properties
// over random nested documents, and checks the generator is doing its job: a
// fair share of them are written by the codec, by json.Marshal, and refused.
func TestAppendRandomRecords(t *testing.T) {
	seeds := []int64{*recordSeed}
	if *recordSeed == 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= 4000; s++ {
			seeds = append(seeds, s)
		}
	}
	var plain, marshaled, refused int
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		jsonShaped := true
		doc := Document{IDField: "x"}
		for n := r.Intn(6); n > 0; n-- {
			doc["k"+strconv.Itoa(n)] = randomRecordValue(r, 1, &jsonShaped)
		}
		id := randomString(r)
		checkAppendRecord(t, "put", id, doc, jsonShaped)
		if t.Failed() {
			t.Fatalf("seed %d (replay: go test ./internal/store -run TestAppendRandomRecords -record.seed=%d)", seed, seed)
		}
		switch _, err := marshalRecord("put", id, doc); {
		case err != nil:
			refused++
		case jsonShaped:
			plain++
		default:
			marshaled++
		}
	}
	if n := len(seeds); *recordSeed == 0 && (plain < n/4 || marshaled < n/20 || refused < n/50) {
		t.Errorf("of %d documents the codec wrote %d, json.Marshal %d, and %d were refused: the generator has drifted", n, plain, marshaled, refused)
	}
}

// TestWALBytesEqualOracle: for one sequence of Insert, InsertUniqueBatch
// and Delete calls, the file the store leaves is the file the
// old encoder would have left, byte for byte — so a store written on either
// side of this codec opens on the other.
func TestWALBytesEqualOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := Open(dir, WithSyncPolicy(SyncNever))
		if err != nil {
			t.Fatal(err)
		}
		c := db.Collection("c")
		live := map[string]Document{}
		var want []byte
		record := func(op, id string) {
			line, err := marshalRecord(op, id, live[id])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, line...)
		}
		newDoc := func(id string) Document {
			shaped := true
			doc := Document{IDField: id, "n": r.Intn(1000), "s": sessionDoc(r.Intn(50))["session"]}
			if v := randomRecordValue(r, 1, &shaped); shaped {
				doc["v"] = v
			}
			return doc
		}
		for step := 0; step < 120; step++ {
			id := "d" + strconv.Itoa(r.Intn(40))
			switch k := r.Intn(10); {
			case k < 4:
				doc := newDoc(id)
				if _, err := c.Insert(doc); err != nil {
					t.Fatal(err)
				}
				live[id] = doc.Clone() // Insert stores a copy
				record("put", id)
			case k < 6:
				var docs []Document
				var fresh []string
				for n := 1 + r.Intn(5); n > 0; n-- {
					bid := "b" + strconv.Itoa(step) + "-" + strconv.Itoa(n)
					doc := newDoc(bid)
					live[bid] = doc // the batch stores the document itself
					docs, fresh = append(docs, doc), append(fresh, bid)
				}
				if _, errs := c.InsertUniqueBatch(docs); errs[0] != nil {
					t.Fatal(errs[0])
				}
				for _, bid := range fresh {
					record("put", bid)
				}
			case k < 8 && live[id] != nil:
				doc := live[id].Clone()
				doc["n"] = step
				if _, err := c.Insert(doc); err != nil {
					t.Fatal(err)
				}
				live[id] = doc.Clone()
				record("put", id)
			case k == 8 && live[id] != nil:
				if err := c.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				record("del", id)
			}
		}
		db.Close()
		got, err := os.ReadFile(filepath.Join(dir, "c.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the WAL is not the file the old encoder writes\n got %q\nwant %q", seed, got, want)
		}
	}
}
