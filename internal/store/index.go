package store

import "slices"

// This file implements the collection-level serving-path machinery: secondary
// indexes (FindEq/CountEq on a declared field become map lookups instead of
// O(docs) scans), numeric value normalization (so live in-memory documents
// and WAL-replayed documents agree), and read-path statistics consumed by the
// observability layer.

// fieldIndex is one secondary index: normalized field value -> id set.
type fieldIndex struct {
	field string
	ids   map[any]*idSet
}

// idSet is the ids of the documents whose field normalizes to key, which
// they all store as that field's value: a test's sessions share one test_id.
type idSet struct {
	key any
	ids map[string]struct{}
}

// indexKey normalizes v into a comparable map key. Values that are not
// comparable after normalization (maps, slices) are not indexable and report
// ok=false; lookups on them fall back to a scan.
func indexKey(v any) (any, bool) {
	switch n := normalizeValue(v).(type) {
	case nil, string, float64, bool:
		return n, true
	default:
		return nil, false
	}
}

// lookup returns the ids indexed under key (nil when none).
func (ix *fieldIndex) lookup(key any) map[string]struct{} {
	if set := ix.ids[key]; set != nil {
		return set.ids
	}
	return nil
}

func (ix *fieldIndex) add(id string, s stored) {
	v := s.get(id, ix.field)
	key, ok := indexKey(v)
	if !ok {
		return
	}
	set := ix.ids[key]
	if set == nil {
		set = &idSet{key: key, ids: make(map[string]struct{})}
		ix.ids[key] = set
	}
	set.ids[id] = struct{}{}
	if i, found := slices.BinarySearch(s.shape.keys, ix.field); found && v == key {
		s.vals[i] = set.key
	}
}

func (ix *fieldIndex) remove(id string, s stored) {
	key, ok := indexKey(s.get(id, ix.field))
	if !ok {
		return
	}
	set := ix.ids[key]
	if set == nil {
		return
	}
	delete(set.ids, id)
	if len(set.ids) == 0 {
		delete(ix.ids, key)
	}
}

// EnsureIndex declares a secondary index on field, building it from the
// current documents (which covers WAL-replayed collections: open the
// database, then declare the indexes). Declaring the same index twice is a
// no-op. Once declared, the index is maintained on every insert and
// delete.
func (c *Collection) EnsureIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.indexes == nil {
		c.indexes = make(map[string]*fieldIndex)
	}
	if _, ok := c.indexes[field]; ok {
		return
	}
	ix := &fieldIndex{field: field, ids: make(map[any]*idSet)}
	for id, s := range c.docs {
		// No value an index keys on stays cold: read it back. One that
		// cannot be read stays cold and unindexed, as no lookup can match it.
		if i, ok := slices.BinarySearch(s.shape.keys, field); ok {
			if ref, isCold := s.vals[i].(cold); isCold {
				if str, err := c.readCold(ref); err == nil {
					s.vals[i] = str
				}
			}
		}
		ix.add(id, s)
	}
	c.indexes[field] = ix
}

// addToIndexes/removeFromIndexes maintain every declared index; callers hold
// the collection lock.
func (c *Collection) addToIndexes(id string, s stored) {
	for _, ix := range c.indexes {
		ix.add(id, s)
	}
}

func (c *Collection) removeFromIndexes(id string, s stored) {
	for _, ix := range c.indexes {
		ix.remove(id, s)
	}
}

// CollectionStats is a snapshot of a collection's read-path behaviour.
type CollectionStats struct {
	// Docs is the current document count.
	Docs int
	// Indexes is the number of declared secondary indexes.
	Indexes int
	// IndexHits counts FindEq/CountEq calls served by an index lookup.
	IndexHits int64
	// Scans counts full-collection scans (Find, and FindEq/CountEq on
	// unindexed or unindexable values).
	Scans int64
	// Shapes is the number of distinct key sets the collection's documents
	// have had, each stored once and shared by every document with it.
	Shapes int
}

// Stats returns the collection's read-path statistics.
func (c *Collection) Stats() CollectionStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CollectionStats{
		Docs:      len(c.docs),
		Indexes:   len(c.indexes),
		IndexHits: c.indexHits.Load(),
		Scans:     c.scans.Load(),
		Shapes:    len(c.shapes),
	}
}

// Change operations reported to OnChange subscribers.
const (
	OpPut    = "put"
	OpDelete = "del"
)

// OnChange subscribes fn to this collection's mutations. fn runs after the
// mutation has committed, outside the collection lock (so it may call back
// into the collection), on the mutating goroutine. note is what the writer
// attached to the document through InsertUniqueNoted, nil for every other
// mutation. WAL replay during Open predates any subscription and is not
// reported.
func (c *Collection) OnChange(fn func(op, id string, note any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onChange = append(c.onChange, fn)
}

// notify invokes subscribers; callers must NOT hold the collection lock.
func (c *Collection) notify(fns []func(op, id string, note any), op, id string, note any) {
	for _, fn := range fns {
		fn(op, id, note)
	}
}

// Int reads a numeric field as an int, tolerating every representation a
// document can pick up along its lifecycle (typed ints at insert time,
// float64 after a JSON round-trip or WAL replay, json.Number from custom
// decoders), read through float64 as a round-trip would. The second return
// is false when the field is absent or not a number.
func (d Document) Int(key string) (int, bool) {
	f, ok := normalizeValue(d[key]).(float64)
	return int(f), ok
}

// normalizeDoc rewrites every numeric value in the document (recursively)
// onto float64 — the representation JSON decoding produces — so a live
// in-memory document is indistinguishable from its WAL-replayed twin.
func normalizeDoc(d Document) {
	for k, v := range d {
		d[k] = normalizeAny(v)
	}
}

func normalizeAny(v any) any {
	switch n := v.(type) {
	case map[string]any:
		for k, e := range n {
			n[k] = normalizeAny(e)
		}
		return n
	case Document:
		normalizeDoc(n)
		return n
	case []any:
		for i, e := range n {
			n[i] = normalizeAny(e)
		}
		return n
	default:
		return normalizeValue(v)
	}
}
