package store

import (
	"fmt"
	"strconv"
)

// InsertUniqueBatch stores many new documents under one lock hold and one
// WAL group commit: every accepted record is framed into a single buffered
// append, and the sync policy runs once for the whole batch instead of once
// per document (under SyncAlways a batch of N costs one fsync, not N — the
// group-commit win the batched upload path is built on).
//
// Semantics per document match InsertUnique: a document whose _id already
// exists — in the collection or earlier in the same batch — fails with
// ErrDuplicateID and changes nothing; ids are generated for documents that
// lack one. Results are reported per document, aligned with docs: ids[i] is
// the stored id ("" when rejected) and errs[i] the rejection (nil when
// stored). A WAL write failure rejects every not-yet-duplicate document
// with the same error, like a failed single insert would.
//
// Ownership: unlike Insert, the batch path takes ownership of the given
// documents — they are normalized in place and stored without a defensive
// deep copy, so the caller must not read or mutate them (or anything they
// reference) after the call. This is what keeps the upload hot path off the
// clone-by-JSON-round-trip floor; callers assembling documents from decoded
// wire payloads own them by construction.
func (c *Collection) InsertUniqueBatch(docs []Document) (ids []string, errs []error) {
	return c.InsertUniqueNoted(docs, nil)
}

// InsertUniqueNoted is InsertUniqueBatch for a writer that also subscribes
// to the collection: notes[i] (notes may be nil, or shorter than docs) rides
// along with docs[i]'s change event to OnChange subscribers, so the
// writer recognises its own write and can hand itself whatever it already
// derived from the document instead of reading it back. The store never
// looks at, persists or replicates a note.
func (c *Collection) InsertUniqueNoted(docs []Document, notes []any) (ids []string, errs []error) {
	ids = make([]string, len(docs))
	errs = make([]error, len(docs))
	if len(docs) == 0 {
		return ids, errs
	}
	if c.db.isClosed() {
		for i := range errs {
			errs[i] = ErrClosed
		}
		return ids, errs
	}

	type accepted struct {
		pos  int
		id   string
		doc  Document
		lits int // where its literals end in c.lits
	}
	batch := make([]accepted, 0, len(docs))
	pending := make(map[string]bool, len(docs))

	c.mu.Lock()
	frames, lits := c.frames[:0], c.lits[:0]
	for i, doc := range docs {
		if doc == nil {
			errs[i] = fmt.Errorf("store: nil document in batch (index %d)", i)
			continue
		}
		normalizeDoc(doc)
		id := doc.ID()
		if id == "" {
			c.seq++
			id = "doc-" + strconv.FormatInt(c.seq, 10)
			doc[IDField] = id
		}
		if _, exists := c.docs[id]; exists || pending[id] {
			errs[i] = fmt.Errorf("%w: %s/%s", ErrDuplicateID, c.name, id)
			continue
		}
		if c.db.dir != "" {
			var err error
			if frames, err = appendRecordLits(frames, "put", id, doc, &lits); err != nil {
				errs[i] = fmt.Errorf("store: encoding WAL record: %w", err)
				continue
			}
		}
		pending[id] = true
		batch = append(batch, accepted{pos: i, id: id, doc: doc, lits: len(lits)})
	}
	c.lits = lits
	if len(batch) == 0 {
		c.mu.Unlock()
		return ids, errs
	}
	at, err := c.appendFrames(frames, len(batch))
	if err != nil {
		for _, a := range batch {
			errs[a.pos] = err
		}
		c.mu.Unlock()
		return ids, errs
	}
	readable := len(lits) > 0 && c.wal.readable()
	from := 0
	for _, a := range batch {
		s := c.freeze(a.doc)
		if readable {
			c.chill(s, frames, lits[from:a.lits], at)
		}
		from = a.lits
		c.docs[a.id] = s
		c.addToIndexes(a.id, s)
		ids[a.pos] = a.id
	}
	fns := c.onChange
	c.mu.Unlock()
	for _, a := range batch {
		var note any
		if a.pos < len(notes) {
			note = notes[a.pos]
		}
		c.notify(fns, OpPut, a.id, note)
	}
	return ids, errs
}
