package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// encodeReport is a batch report as encoding/json's encoder writes it.
func encodeReport(t testing.TB, r *BatchReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// staleReport is a used report, which DecodeBatchReport must leave nothing
// of but the capacity of its results.
func staleReport() BatchReport {
	return BatchReport{
		TestID: "stale", Accepted: 7, Rejected: 8, Error: "stale", Concluded: true,
		Results: []BatchElementResult{{Index: 9, WorkerID: "ghost", Status: 500, Error: "ghost"}, {Index: 10, Status: 501}},
	}
}

// checkReportValue: AppendBatchReport writes the encoder's bytes of r, and
// DecodeBatchReport reads those bytes as json.Unmarshal does.
func checkReportValue(t *testing.T, r *BatchReport) {
	t.Helper()
	wire := encodeReport(t, r)
	if got := AppendBatchReport([]byte("prefix"), r); !bytes.Equal(got[len("prefix"):], wire) {
		t.Fatalf("AppendBatchReport:\n%.400q\nthe encoder:\n%.400q", got[len("prefix"):], wire)
	}
	var want BatchReport
	if err := json.Unmarshal(wire, &want); err != nil {
		t.Fatalf("json.Unmarshal of the encoder's bytes: %v", err)
	}
	got := staleReport()
	if err := DecodeBatchReport(wire, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeBatchReport(%.400q) = %v:\n%+.400v\nwant %+.400v", wire, err, got, want)
	}
}

// checkBatchReport holds the codec to encoding/json on any bytes b: what
// DecodeBatchReport reads, json.Unmarshal reads the same; and what
// json.Unmarshal reads, re-encoded as a node would write it, passes
// checkReportValue.
func checkBatchReport(t *testing.T, b []byte) {
	t.Helper()
	got := staleReport()
	err := DecodeBatchReport(b, &got)
	var want BatchReport
	errJSON := json.Unmarshal(b, &want)
	if err == nil && (errJSON != nil || !reflect.DeepEqual(got, want)) {
		t.Fatalf("DecodeBatchReport reads %.400q as\n%+.400v\njson.Unmarshal: %v\n%+.400v", b, got, errJSON, want)
	}
	if errJSON == nil {
		checkReportValue(t, &want)
	}
}

// reportOf builds a report of n elements whose every string is text and
// every int derives from k; shape's bits leave out the elements' worker ids
// (1) and errors (2), make results nil (4) and set the report's error (8)
// and concluded (16).
func reportOf(text string, n int, k int64, shape uint8) *BatchReport {
	r := &BatchReport{TestID: text, Accepted: int(k), Rejected: int(-k >> 1), Concluded: shape&16 != 0}
	if shape&8 != 0 {
		r.Error = text
	}
	if shape&4 == 0 {
		r.Results = make([]BatchElementResult, n)
	}
	for i := range r.Results {
		e := &r.Results[i]
		e.Index, e.Status = i, int(k)+i
		if shape&1 == 0 || i%2 == 1 {
			e.WorkerID = text
		}
		if shape&2 == 0 && i%3 != 1 {
			e.Error = text + e.WorkerID
		}
	}
	return r
}

// reportTexts are the strings a report's escaper must write as the encoder
// does: quotes and backslashes, HTML, the two line separators, every kind of
// control byte, invalid UTF-8 and an error a node writes.
var reportTexts = []string{
	"", "w001", `she said "quicker" \ 👍`, "<b>&amp;</b>", "\u2028 and \u2029",
	"\x00\x01\b\f\n\r\t\x1f\x7f", "\xff\xfe\xc3 invalid \xed\xa0\x80",
	`decoding session: case or escape in key "WORKER_ID" at byte 22`,
}

// reportDocs are documents DecodeBatchReport reads: a node's bytes, and the
// same in other spacing, key order and escapes.
var reportDocs = []string{
	`{"test_id":"t","accepted":1,"rejected":1,"results":[{"index":0,"worker_id":"a","status":201},{"index":1,"status":400,"error":"invalid session: x"}]}` + "\n",
	`{"test_id":"t","accepted":0,"rejected":0,"results":[]}`,
	` { "results" : [ { "status" : 409 , "index" : 0 , "error" : "dup" , "worker_id" : "w\u00e9\"" } ] ,"rejected":1, "test_id":"t\/u", "accepted":0 } `,
	`{"results":null,"error":"client canceled request","concluded":false}`,
	`{"concluded":true,"accepted":-0,"rejected":9223372036854775807}`,
	`{}`,
	"{\"test_id\":\"\xff\"}",
}

// refusedReportDocs are documents DecodeBatchReport refuses, the first of
// them ones encoding/json would read: a key unknown, in capitals, escaped
// or repeated; null where a node writes none; a number no int is; bytes
// after the report; and then no JSON at all.
var refusedReportDocs = []string{
	`{"test_id":"t","shard":1}`,
	`{"TEST_ID":"t"}`,
	`{"results":[{"Index":0}]}`,
	`{"test_\u0069d":"t"}`,
	`{"accepted":1,"accepted":2}`,
	`{"results":[{"status":201,"status":409}]}`,
	`{"test_id":null}`,
	`{"results":[null]}`,
	`{"results":[{"worker_id":null}]}`,
	`{"concluded":null}`,
	`null`,
	`{"accepted":1.0}`,
	`{"accepted":1e2}`,
	`{"results":[{"index":99999999999999999999}]}`,
	`{"test_id":"t"} {}`,
	`{"test_id":"t"}x`,
	``,
	`{"test_id":"t"`,
	`{"test_id":"t",}`,
	`{"results":[{"index":0},]}`,
	`{"concluded":tru}`,
	`{"concluded":1}`,
	`{"results":{}}`,
	`[]`,
	"{\"test_id\":\"a\x01b\"}",
}

// TestBatchReportCodec is FuzzBatchReport's seeds, named: the writer on
// every text and shape, no results and 10 000 of them; the reader on
// documents it must read and on ones it must refuse.
func TestBatchReportCodec(t *testing.T) {
	for _, text := range reportTexts {
		for shape := uint8(0); shape < 32; shape++ {
			for _, n := range []int{0, 1, 3} {
				checkReportValue(t, reportOf(text, n, 201, shape))
			}
		}
	}
	checkReportValue(t, reportOf("w", MaxBatchSessions, 413, 0))
	checkReportValue(t, &BatchReport{TestID: "t", Results: []BatchElementResult{}})
	if got, want := AppendBatchReport(nil, &BatchReport{Results: []BatchElementResult{}}), `{"test_id":"","accepted":0,"rejected":0,"results":[]}`+"\n"; string(got) != want {
		t.Errorf("an empty report: %q, want %q", got, want)
	}
	for _, doc := range reportDocs {
		r := staleReport()
		if err := DecodeBatchReport([]byte(doc), &r); err != nil {
			t.Errorf("DecodeBatchReport(%q): %v", doc, err)
		}
		checkBatchReport(t, []byte(doc))
	}
	for _, doc := range refusedReportDocs {
		r := staleReport()
		if err := DecodeBatchReport([]byte(doc), &r); err == nil {
			t.Errorf("DecodeBatchReport(%q) reads %+v, want an error", doc, r)
		}
		checkBatchReport(t, []byte(doc))
	}
}

// TestBatchReportCodecCoversEveryField fails when a field is added to
// BatchReport or BatchElementResult and not to the codec's keys.
func TestBatchReportCodecCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{{BatchReport{}, reportKeys}, {BatchElementResult{}, reportElementKeys}} {
		var tags []string
		typ := reflect.TypeOf(c.v)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		keys := slices.Clone(c.keys)
		slices.Sort(tags)
		slices.Sort(keys)
		if !slices.Equal(tags, keys) {
			t.Errorf("%s has the keys %v, the codec reads %v", typ, tags, keys)
		}
	}
}

// FuzzBatchReport is the gate on the batch report's codec: for any bytes,
// checkBatchReport; for any report built from text, checkReportValue.
func FuzzBatchReport(f *testing.F) {
	for _, doc := range append(slices.Clone(reportDocs), refusedReportDocs...) {
		f.Add([]byte(doc), "", uint16(0), int64(0), uint8(0))
	}
	for i, text := range reportTexts {
		f.Add(AppendBatchReport(nil, reportOf(text, 2, int64(i), uint8(i))), text, uint16(i), int64(-i), uint8(i*5))
	}
	f.Add([]byte(`{}`), "w", uint16(MaxBatchSessions), int64(201), uint8(0))
	f.Fuzz(func(t *testing.T, doc []byte, text string, n uint16, k int64, shape uint8) {
		checkBatchReport(t, doc)
		checkReportValue(t, reportOf(text, int(n)%(MaxBatchSessions+1), k, shape))
	})
}
