package store

import (
	"strconv"
	"strings"
	"testing"
)

func BenchmarkInsert(b *testing.B) {
	db := OpenMemory()
	c := db.Collection("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(Document{"worker": "w1", "choice": "left", "n": i}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCollection fills a collection with 10k documents spread over 1000
// test_id buckets (10 matches per lookup), optionally indexed.
func benchCollection(b *testing.B, indexed bool) *Collection {
	b.Helper()
	db := OpenMemory()
	c := db.Collection("bench")
	if indexed {
		c.EnsureIndex("test_id")
	}
	for i := 0; i < 10_000; i++ {
		if _, err := c.Insert(Document{"test_id": "t" + strconv.Itoa(i%1000)}); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkFindEq is the scan floor: every lookup visits all 10k documents
// to find its 10 matches.
func BenchmarkFindEq(b *testing.B) {
	c := benchCollection(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.FindEq("test_id", "t3")) != 10 {
			b.Fatal("bad count")
		}
	}
}

// BenchmarkFindEqIndexed is the same lookup against the same 10k-document
// collection with test_id indexed: cost is proportional to the 10 matches,
// not the collection.
func BenchmarkFindEqIndexed(b *testing.B) {
	c := benchCollection(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.FindEq("test_id", "t3")) != 10 {
			b.Fatal("bad count")
		}
	}
}

// BenchmarkCountEqIndexed counts without copying documents: O(1) regardless
// of match count or collection size.
func BenchmarkCountEqIndexed(b *testing.B) {
	c := benchCollection(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.CountEq("test_id", "t3") != 10 {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkPersistentInsert(b *testing.B) {
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	c := db.Collection("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(Document{"n": i}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRecord frames the benchmark's session document once: the
// codec into a reused buffer, and the encoder it replaced.
func BenchmarkWALRecord(b *testing.B) {
	doc := sessionDoc(7)
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendRecord(buf[:0], "put", doc.ID(), doc); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := marshalRecord("put", doc.ID(), doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerifyWALLine is the follower's check of that record: vouched for
// by the scan, sent to parseWALLine by one space the scan will not read past,
// and the check it replaced.
func BenchmarkVerifyWALLine(b *testing.B) {
	doc := sessionDoc(7)
	line, err := appendRecord(nil, "put", doc.ID(), doc)
	if err != nil {
		b.Fatal(err)
	}
	spaced := framed(strings.Replace(string(payloadOf(line)), `{"op":`, `{"op": `, 1))
	for _, bench := range []struct {
		name   string
		line   []byte
		verify func([]byte) error
	}{
		{"scan", line, VerifyWALLine},
		{"fallback", spaced, VerifyWALLine},
		{"encoding_json", line, verifyWALLineJSON},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bench.line)))
			for i := 0; i < b.N; i++ {
				if err := bench.verify(bench.line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
