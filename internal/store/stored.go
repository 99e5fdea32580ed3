package store

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"unicode/utf8"
)

// Documents at rest: a collection keeps a document's values alone, in the
// order of a sorted key list — its shape — that every document with the same
// keys shares. _id is not kept: a document's _id is its key in the docs map,
// a replayed record's included. Every read thaws a fresh Document, the deep
// copy Document.Clone would make.
//
// On a dir-backed collection a large top-level string value goes cold: the
// collection keeps where its JSON literal sits in the WAL instead of the
// string, and a read fetches it back with one positioned read, checked
// against the literal's CRC-32. A value goes cold when its record is written
// or replayed, if it is at least coldMin bytes and valid UTF-8 (the encoder
// records a literal only then) and no index keys on it (chill's check). The
// log is only appended to between open and close, so the offset stays true
// for as long as the collection is open. A read that fails, or whose bytes
// fail the checksum, yields an error wrapping ErrColdRead, never other data.

// coldMin is the length from which a top-level string value goes cold.
const coldMin = 256

// ErrColdRead is wrapped by the error a read reports when a cold value
// cannot be read back from the WAL or fails its checksum. Get returns it;
// Find and FindEq, which return no error, put it in the value's place.
var ErrColdRead = errors.New("store: cold value unreadable")

// cold is a string value kept in the collection's WAL: the file offset and
// length of its JSON literal and the literal's CRC-32.
type cold struct {
	off int64
	n   uint32
	sum uint32
}

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

// chill makes cold each of s's values whose literal lits locates in frames,
// which begin at file offset base of the WAL, unless an index keys on it.
// Callers hold c.mu exclusively, with the WAL's read handle open.
func (c *Collection) chill(s stored, frames []byte, lits []literal, base int64) {
	for _, l := range lits {
		i, ok := slices.BinarySearch(s.shape.keys, l.key)
		if _, indexed := c.indexes[l.key]; !ok || indexed {
			continue // _id, or a key an index shares
		}
		lit := frames[l.start:l.end]
		s.vals[i] = cold{off: base + int64(l.start), n: uint32(len(lit)), sum: crc32.ChecksumIEEE(lit)}
	}
}

// readCold reads a cold value back from the WAL. Callers hold c.mu.
func (c *Collection) readCold(v cold) (string, error) {
	c.db.coldReads.Add(1)
	if c.wal == nil || c.wal.reader == nil {
		return "", fmt.Errorf("%w: %s: %w", ErrColdRead, c.name, ErrClosed)
	}
	lit := make([]byte, v.n)
	if _, err := c.wal.reader.ReadAt(lit, v.off); err != nil {
		return "", fmt.Errorf("%w: %s at offset %d: %w", ErrColdRead, c.name, v.off, err)
	}
	var str string
	if crc32.ChecksumIEEE(lit) != v.sum || json.Unmarshal(lit, &str) != nil {
		return "", fmt.Errorf("%w: %s at offset %d: checksum mismatch", ErrColdRead, c.name, v.off)
	}
	return str, nil
}

// hot returns s with its cold values read back: s itself when it has none,
// else a copy holding, for a value that could not be read, the error, which
// is also the first one returned. Callers hold c.mu.
func (c *Collection) hot(s stored) (stored, error) {
	var first error
	h := stored{shape: s.shape}
	for i, v := range s.vals {
		ref, ok := v.(cold)
		if !ok {
			continue
		}
		if h.vals == nil {
			h.vals = slices.Clone(s.vals)
		}
		str, err := c.readCold(ref)
		if h.vals[i] = str; err != nil {
			h.vals[i] = err
			first = cmp.Or(first, err)
		}
	}
	if h.vals == nil {
		return s, nil
	}
	return h, first
}

// thaw returns a fresh deep copy of a document with no cold values:
// Document.Clone of its view.
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

// thaw is stored.thaw with s's cold values read back; each one that cannot
// be is its read's error in the copy, and the first such error is returned
// as well. Callers hold c.mu.
func (c *Collection) thaw(id string, s stored) (Document, error) {
	h, err := c.hot(s)
	d := h.thaw(id)
	if err != nil {
		for i, v := range s.vals {
			if _, wasCold := v.(cold); wasCold {
				d[s.shape.keys[i]] = h.vals[i] // the string, or its read's error
			}
		}
	}
	return d, err
}
