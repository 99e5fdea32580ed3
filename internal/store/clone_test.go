package store

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomValue draws a JSON-shaped value: nested maps and slices (empty and
// nil ones included), strings, bools, nil, and every numeric type a caller
// can put in a document before normalization.
func randomValue(rng *rand.Rand, depth int) any {
	kinds := 17
	if depth >= 3 {
		kinds = 14 // leaves only
	}
	switch rng.Intn(kinds) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return []string{"", "x", "héllo wörld", "<a&b> ", "line\nbreak\t\"quoted\""}[rng.Intn(5)]
	case 3:
		return rng.NormFloat64() * 1e6
	case 4:
		return float64(rng.Intn(100))
	case 5:
		return rng.Intn(1 << 30)
	case 6:
		return int8(rng.Intn(256) - 128)
	case 7:
		return int16(rng.Intn(1<<16) - 1<<15)
	case 8:
		return int32(rng.Uint32())
	case 9:
		// Past 2^53: the round-trip and the conversion must round alike.
		return int64(rng.Uint64())
	case 10:
		return uint(rng.Uint32())
	case 11:
		return uint8(rng.Intn(256))
	case 12:
		return uint16(rng.Intn(1 << 16))
	case 13:
		return rng.Uint64()
	case 14:
		if rng.Intn(6) == 0 {
			return []any(nil)
		}
		s := make([]any, rng.Intn(4))
		for i := range s {
			s[i] = randomValue(rng, depth+1)
		}
		return s
	case 15:
		if rng.Intn(6) == 0 {
			return map[string]any(nil)
		}
		return map[string]any(randomDoc(rng, depth+1))
	default:
		return randomDoc(rng, depth+1) // a nested Document decodes as a plain map
	}
}

func randomDoc(rng *rand.Rand, depth int) Document {
	d := make(Document)
	for i, n := 0, rng.Intn(5); i < n; i++ {
		d[string(rune('a'+rng.Intn(8)))+string(rune('a'+i))] = randomValue(rng, depth)
	}
	return d
}

// The structural Clone must be indistinguishable from the JSON round-trip it
// replaces, over generated documents and over the values it has to hand to
// the round-trip itself.
func TestCloneEqualsJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	for i := 0; i < 2000; i++ {
		doc := randomDoc(rng, 0)
		got, want := doc.Clone(), doc.cloneJSON()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: Clone diverges from the JSON round-trip:\nclone %#v\njson  %#v", i, got, want)
		}
	}
	for name, doc := range map[string]Document{
		"nil document":    nil,
		"empty document":  {},
		"float32":         {"f": float32(0.1)},
		"json.Number":     {"n": json.Number("12345678901234567890")},
		"invalid utf-8":   {"s": "bad\xffbyte", "k\xfe": 1},
		"struct value":    {"v": struct{ A int }{7}},
		"typed slice":     {"v": []string{"a", "b"}},
		"extreme floats":  {"max": math.MaxFloat64, "tiny": math.SmallestNonzeroFloat64, "negzero": math.Copysign(0, -1)},
		"nested fallback": {"outer": map[string]any{"inner": []any{float32(2.5)}}},
	} {
		if got, want := doc.Clone(), doc.cloneJSON(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Clone %#v, JSON round-trip %#v", name, got, want)
		}
	}
}

// A clone shares no mutable structure with its source.
func TestCloneIsDeep(t *testing.T) {
	src := Document{"m": map[string]any{"k": "v"}, "s": []any{map[string]any{"n": 1}}}
	cp := src.Clone()
	cp["m"].(map[string]any)["k"] = "changed"
	cp["s"].([]any)[0].(map[string]any)["n"] = 2.0
	if src["m"].(map[string]any)["k"] != "v" || src["s"].([]any)[0].(map[string]any)["n"] != 1 {
		t.Fatalf("mutating the clone reached the source: %#v", src)
	}
}
