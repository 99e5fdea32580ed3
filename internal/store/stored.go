package store

import (
	"slices"
	"unicode/utf8"
)

// Documents at rest: a collection keeps a document's values alone, in the
// order of a sorted key list — its shape — that every document with the same
// keys shares. _id is not kept: a document's _id is its key in the docs map,
// a replayed record's included. Every read thaws a fresh Document, the deep
// copy Document.Clone would make.

// shape is one sorted top-level key list without _id, interned per
// collection; valid says every key is valid UTF-8, so a thaw may copy
// structurally.
type shape struct {
	keys  []string
	valid bool
}

// stored is a document at rest: its shape and its values in key order.
type stored struct {
	shape *shape
	vals  []any
}

// shapeOf returns the collection's shape for doc's keys, sorting only a key
// set it has not met. Callers hold c.mu.
func (c *Collection) shapeOf(doc Document) *shape {
	n := len(doc)
	if _, ok := doc[IDField]; ok {
		n--
	}
next:
	for _, sh := range c.shapes {
		if len(sh.keys) != n {
			continue
		}
		for _, k := range sh.keys {
			if _, ok := doc[k]; !ok {
				continue next
			}
		}
		return sh
	}
	sh := &shape{keys: make([]string, 0, n), valid: true}
	for k := range doc {
		if k != IDField {
			sh.keys = append(sh.keys, k)
			sh.valid = sh.valid && utf8.ValidString(k)
		}
	}
	slices.Sort(sh.keys)
	c.shapes = append(c.shapes, sh)
	return sh
}

// freeze stores doc, which the collection now owns, with doc's own values.
func (c *Collection) freeze(doc Document) stored {
	sh := c.shapeOf(doc)
	vals := make([]any, len(sh.keys))
	for i, k := range sh.keys {
		vals[i] = doc[k]
	}
	return stored{sh, vals}
}

// freezeCopy stores the deep copy doc.Clone() would make, with no map in
// between, and returns that copy's _id ("" when it has none).
func (c *Collection) freezeCopy(doc Document) (stored, string) {
	sh := c.shapeOf(doc)
	id, _ := doc[IDField].(string)
	vals := make([]any, len(sh.keys))
	ok := sh.valid && utf8.ValidString(id)
	for i := 0; ok && i < len(vals); i++ {
		vals[i], ok = cloneValue(doc[sh.keys[i]])
	}
	if ok {
		return stored{sh, vals}, id
	}
	cp := doc.cloneJSON()
	normalizeDoc(cp) // what JSON cannot encode stays a shallow copy
	return c.freeze(cp), cp.ID()
}

// get returns the document's field as a map lookup would; id is its docs key.
func (s stored) get(id, field string) any {
	if field == IDField {
		return id
	}
	if i, ok := slices.BinarySearch(s.shape.keys, field); ok {
		return s.vals[i]
	}
	return nil
}

// view is the document as a map of the stored values themselves, for the
// WAL encoder and the JSON round-trip; nil for the zero stored.
func (s stored) view(id string) Document {
	if s.shape == nil {
		return nil
	}
	d := make(Document, len(s.vals)+1)
	for i, k := range s.shape.keys {
		d[k] = s.vals[i]
	}
	d[IDField] = id
	return d
}

// thaw returns a fresh deep copy of the document: Document.Clone of its view.
func (s stored) thaw(id string) Document {
	d := make(Document, len(s.vals)+1)
	ok := s.shape.valid && utf8.ValidString(id)
	for i := 0; ok && i < len(s.vals); i++ {
		d[s.shape.keys[i]], ok = cloneValue(s.vals[i])
	}
	if !ok {
		return s.view(id).cloneJSON()
	}
	d[IDField] = id
	return d
}
