package store

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// fuzzDoc builds a document from fuzz bytes: a key count, then per key a key
// byte and a value. Keys and values cover what Clone must hand to the JSON
// round-trip (float32, json.Number, structs, invalid UTF-8 in keys and
// values) beside the JSON-shaped ones, NaN, nil and empty containers, and a
// Document nested in a plain map.
type fuzzDoc struct{ b []byte }

func (r *fuzzDoc) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzDoc) doc(depth int) Document {
	d := Document{}
	for n := r.next() % 6; n > 0; n-- {
		k := r.next()
		switch k % 8 {
		case 0:
			d[IDField] = r.value(depth)
		case 1:
			d["k\xff"] = r.value(depth)
		default:
			d[string(rune('a'+k%16))] = r.value(depth)
		}
	}
	return d
}

func (r *fuzzDoc) value(depth int) any {
	kinds := byte(16)
	if depth >= 3 {
		kinds = 10 // leaves only
	}
	switch c := r.next(); c % kinds {
	case 0:
		return nil
	case 1:
		return int(int8(r.next()))
	case 2:
		return float32(r.next()) / 10
	case 3:
		return json.Number(strconv.Itoa(int(r.next())))
	case 4:
		return struct{ A int }{int(r.next())}
	case 5:
		return math.NaN()
	case 6:
		return "v\xfe"
	case 7:
		return string(rune('a' + r.next()%26))
	case 8:
		return r.next()%2 == 0
	case 9:
		return float64(r.next()) / 4
	case 10:
		return map[string]any(nil)
	case 11:
		return []any(nil)
	case 12:
		return map[string]any{}
	case 13:
		return []any{}
	case 14:
		return map[string]any{"d": r.doc(depth + 1)}
	default:
		s := make([]any, r.next()%3)
		for i := range s {
			s[i] = r.value(depth + 1)
		}
		return s
	}
}

// nanFree replaces every NaN with a marker, so reflect.DeepEqual can compare
// documents that hold one.
func nanFree(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) {
			return "NaN-marker"
		}
	case Document:
		return Document(nanFree(map[string]any(x)).(map[string]any))
	case map[string]any:
		if x != nil {
			m := make(map[string]any, len(x))
			for k, e := range x {
				m[k] = nanFree(e)
			}
			return m
		}
	case []any:
		if x != nil {
			s := make([]any, len(x))
			for i, e := range x {
				s[i] = nanFree(e)
			}
			return s
		}
	}
	return v
}

func sameDoc(a, b Document) bool {
	return reflect.DeepEqual(nanFree(map[string]any(a)), nanFree(map[string]any(b)))
}

// scribble writes into every map and slice of v.
func scribble(v any) {
	switch x := v.(type) {
	case Document:
		scribble(map[string]any(x))
	case map[string]any:
		for k, e := range x {
			scribble(e)
			x[k] = "scribbled"
		}
		if x != nil {
			x["scribbled"] = true
		}
	case []any:
		for i, e := range x {
			scribble(e)
			x[i] = "scribbled"
		}
	}
}

// FuzzStoredDocument is the differential oracle for documents at rest: a
// thaw of a frozen document is exactly Document.Clone of it — on the write
// paths' deep-copying freeze and on the owning freeze batches and replay
// use — and no thaw shares anything with the next.
func FuzzStoredDocument(f *testing.F) {
	for _, seed := range [][]byte{
		{3, 2, 1, 5, 3, 1, 0, 9, 2},     // ints
		{1, 2, 2, 3},                    // float32
		{1, 2, 3, 77},                   // json.Number
		{1, 2, 4, 9},                    // a struct
		{2, 2, 5, 3, 5},                 // NaN
		{2, 1, 7, 0, 2, 6},              // invalid UTF-8 in a key and in a value
		{4, 2, 10, 3, 11, 4, 12, 5, 13}, // nil and empty maps and slices
		{1, 2, 14, 2, 3, 1, 4, 2, 0},    // a Document inside a map[string]any
		{1, 0, 7, 3},                    // only _id
		{3, 2, 7, 1, 3, 7, 2, 4, 7, 3},  // keys c, d, e ...
		{3, 4, 7, 1, 3, 7, 2, 2, 7, 3},  // ... the same keys in another order
		{3, 8, 15, 2, 14, 1, 15, 2, 5, 9, 11, 14, 2, 6, 0, 15, 1, 4},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const id = "doc-1"
		c := OpenMemory().Collection("fuzz")
		doc := (&fuzzDoc{b: data}).doc(0)
		if _, shaped := cloneMap(doc); !shaped {
			if _, err := json.Marshal(doc); err != nil {
				// Clone can only copy such a document shallowly.
				t.Skip("neither JSON-shaped nor encodable: outside the Document contract")
			}
		}

		// Both freezes file the document under id, whatever its _id says:
		// the write paths' deep copy, and the owning one of batches and replay.
		want := doc.Clone()
		cp, gotID := c.freezeCopy(doc)
		if gotID != want.ID() {
			t.Fatalf("freezeCopy returned id %q, Clone has %q", gotID, want.ID())
		}
		want[IDField] = id
		for name, s := range map[string]stored{"freezeCopy": cp, "freeze": c.freeze(doc)} {
			first := s.thaw(id)
			if !sameDoc(first, want) {
				t.Fatalf("%s: thaw %#v, Clone %#v", name, first, want)
			}
			scribble(first)
			if again := s.thaw(id); !sameDoc(again, want) {
				t.Fatalf("%s: writing to a thaw reached the store: %#v, want %#v", name, again, want)
			}
		}

		// The same keys met again, inserted in reverse order, are one shape.
		keys := make([]string, 0, len(doc))
		for k := range doc {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		rev := make(Document, len(keys))
		for i := len(keys) - 1; i >= 0; i-- {
			rev[keys[i]] = doc[keys[i]]
		}
		if again, _ := c.freezeCopy(rev); again.shape != cp.shape {
			t.Fatalf("the same keys in another order interned a second shape: %v and %v", again.shape.keys, cp.shape.keys)
		}
	})
}

// storedCorpus returns fresh copies of documents covering every kind of
// value a stored document can hold and the WAL can carry.
func storedCorpus() []Document {
	return []Document{
		{IDField: "a", "test_id": "t1", "n": 7, "f": float32(0.1), "num": json.Number("12"),
			"nested": map[string]any{"d": Document{"x": int64(3)}, "s": []any{}, "m": map[string]any(nil)}},
		{IDField: "b", "test_id": "t1", "s": "héllo", "typed": []string{"x"}, "v": struct{ A int }{5}},
		{IDField: "c", "test_id": "t2", "bad": "x\xffy", "k\xfe": true, "list": []any{1, "two", nil}},
		{IDField: "d", "test_id": 2, "s": "héllo"},
		{IDField: "e"},
		{IDField: "f", "nested": Document{"test_id": "t1"}, "test_id": nil},
	}
}

// storedAnswers is every read's answer over the corpus.
func storedAnswers(c *Collection) string {
	var out []any
	for _, d := range storedCorpus() {
		got, err := c.Get(d.ID())
		out = append(out, got, err)
	}
	out = append(out, c.Find(nil), c.Find(func(d Document) bool { return d["s"] == "héllo" }))
	for _, v := range []any{"t1", "t2", 2, nil, "absent"} {
		out = append(out, c.FindEq("test_id", v), c.CountEq("test_id", v))
	}
	return fmt.Sprintf("%#v", out)
}

// One corpus through every write path and reopen, on both
// backends: every state answers every read identically, and the first
// answers Get with Document.Clone of what was inserted.
func TestStoredDocumentsAgreeInEveryState(t *testing.T) {
	var want string
	for _, backend := range []string{"memory", "dir"} {
		for _, path := range []string{"Insert", "InsertUniqueBatch"} {
			dir := t.TempDir()
			db := OpenMemory()
			if backend == "dir" {
				var err error
				if db, err = Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			c := db.Collection("docs")
			if path == "Insert" {
				for _, d := range storedCorpus() {
					if _, err := c.Insert(d); err != nil {
						t.Fatal(err)
					}
				}
			} else if _, errs := c.InsertUniqueBatch(storedCorpus()); slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
				t.Fatal(errs)
			}
			if want == "" {
				for _, d := range storedCorpus() {
					if got, _ := c.Get(d.ID()); !reflect.DeepEqual(got, d.Clone()) {
						t.Fatalf("Get(%s) = %#v, want Clone %#v", d.ID(), got, d.Clone())
					}
				}
				want = storedAnswers(c)
			}
			check := func(state string) {
				t.Helper()
				if got := storedAnswers(c); got != want {
					t.Errorf("%s %s, %s:\n got %s\nwant %s", backend, path, state, got, want)
				}
			}
			check("scanned")
			c.EnsureIndex("test_id")
			check("indexed")
			for _, d := range storedCorpus() {
				got, err := c.Get(d.ID())
				if err == nil {
					_, err = c.Insert(got)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			check("rewritten")
			if backend == "dir" {
				db.Close()
				var err error
				if db, err = Open(dir); err != nil {
					t.Fatal(err)
				}
				c = db.Collection("docs")
				check("reopened")
				c.EnsureIndex("test_id")
				check("reopened and indexed")
			}
			db.Close()
		}
	}
}

// An upsert stores a copy of the map it is given: writing to that map
// afterwards, at the top level or nested, changes nothing a read, the index
// or a reopened store sees.
func TestInsertStoresACopy(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("r")
	c.EnsureIndex("test_id")
	if _, err := c.Insert(Document{IDField: "s", "test_id": "a"}); err != nil {
		t.Fatal(err)
	}
	kept := Document{IDField: "s", "test_id": "b", "nested": map[string]any{"k": "v"}}
	if _, err := c.Insert(kept); err != nil {
		t.Fatal(err)
	}
	kept["test_id"] = "zzz"
	kept["nested"].(map[string]any)["k"] = "leak"

	want := Document{IDField: "s", "test_id": "b", "nested": map[string]any{"k": "v"}}
	check := func(c *Collection, state string) {
		t.Helper()
		if got, err := c.Get("s"); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Get = %#v, %v; want %#v", state, got, err, want)
		}
		if got := c.FindEq("test_id", "b"); !reflect.DeepEqual(got, []Document{want}) {
			t.Errorf("%s: FindEq(test_id, b) = %#v", state, got)
		}
		if b, zzz := c.CountEq("test_id", "b"), c.CountEq("test_id", "zzz"); b != 1 || zzz != 0 {
			t.Errorf("%s: CountEq b = %d, zzz = %d; want 1 and 0", state, b, zzz)
		}
	}
	check(c, "live")
	db.Close()
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := db2.Collection("r")
	c2.EnsureIndex("test_id")
	check(c2, "reopened")
}

// Find hands its predicate a copy, the one it returns on a match: a
// predicate that writes to its argument changes nothing stored.
func TestFindPredicateGetsACopy(t *testing.T) {
	c := OpenMemory().Collection("r")
	orig := Document{IDField: "a", "test_id": "t", "nested": map[string]any{"k": "v"}}
	if _, err := c.Insert(orig); err != nil {
		t.Fatal(err)
	}
	if got := c.Find(func(d Document) bool {
		d["test_id"] = "pred"
		d["nested"].(map[string]any)["k"] = "pred"
		return false
	}); len(got) != 0 {
		t.Fatalf("Find = %v, want nothing", got)
	}
	matched := c.Find(func(d Document) bool { d["seen"] = true; return true })
	if len(matched) != 1 || matched[0]["seen"] != true {
		t.Fatalf("Find returned %v, want the copy its predicate marked", matched)
	}
	if got, _ := c.Get("a"); !reflect.DeepEqual(got, orig) {
		t.Errorf("a predicate's writes reached the store: Get = %#v, want %#v", got, orig)
	}
}
