package shard

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"kaleidoscope/internal/jsonscan"
	"kaleidoscope/internal/server"
)

const workerIDKey = "worker_id"

// scanElement is the router's reading of one session: it walks the JSON
// value that starts at b[i], inside depth containers (the batch's array, or
// none), and returns the index past it and the session's worker id, building
// no Go value; or a negative end, and no id that means anything, for bytes
// that are not JSON. The grammar and the bounds checks are jsonscan's.
//
// The id has to be the one the owning shard will store: a session routed by
// any other lands a worker on two shards, which breaks the duplicate 409 and
// the session-list order. The shard's session codec takes the id from one
// top-level key spelled exactly "worker_id" whose value is a string, read as
// its str() reads one (jsonscan.Unquote when it is not plain), and refuses an
// element whose key is spelled otherwise or repeated. So that key is the
// one the walk reads; an element it does not find one in routes by the empty
// id, and is refused by whichever shard it lands on. FuzzBatchSplit holds
// the walk to the codec.
func scanElement(b []byte, i, depth int) (end int, workerID []byte) {
	end, _ = jsonscan.Members(b, i, depth, func(key, value []byte, plain bool) {
		if !plain || string(key) != workerIDKey {
			return
		}
		switch end, plain := jsonscan.String(value, 0); {
		case plain:
			workerID = value[1 : len(value)-1]
		case end > 0:
			workerID = []byte(jsonscan.Unquote(value))
		}
	})
	return end, workerID
}

// sessionWorkerID is the worker id of a single-session upload body; a body
// that is not one JSON value has none (its shard answers 400 wherever it
// lands).
func sessionWorkerID(body []byte) []byte {
	end, id := scanElement(body, jsonscan.SkipSpace(body, 0), 0)
	if end < 0 || jsonscan.SkipSpace(body, end) < len(body) {
		return nil
	}
	return id
}

// element is one top-level element of a batch: body[start:end], owned by
// shard.
type element struct{ start, end, shard int }

// subBatch is one shard's share of a batch.
type subBatch struct {
	body []byte // "[elem,elem,...]"; nil when the shard owns none of the batch
	n    int    // elements in body
}

// batchSplit is the scratch one batch request works in: the body as it
// arrived, its inflation, and the element index. It is pooled, so everything
// in it must be dead when the handler returns — the sub-batch bodies, which
// an HTTP transport may still be writing out after its round trip has
// returned, are deliberately not part of it.
type batchSplit struct {
	src   bytes.Reader
	zr    gzip.Reader
	wire  []byte
	plain []byte
	elems []element
}

var splitPool = sync.Pool{New: func() any { return new(batchSplit) }}

// maxPooledSplit bounds the buffers a pooled batchSplit keeps: one huge
// batch must not pin its size for as long as traffic keeps the pool warm.
const maxPooledSplit = 1 << 20

func (sp *batchSplit) release() {
	if cap(sp.wire)+cap(sp.plain) > maxPooledSplit {
		sp.wire, sp.plain = nil, nil
	}
	splitPool.Put(sp)
}

// read buffers the request body and, if it is gzip-encoded, inflates it,
// each under the node's byte budget. The returned slice is the scratch's.
func (sp *batchSplit) read(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	var err error
	if sp.wire, err = appendBounded(sp.wire, r.Body, r.ContentLength, server.MaxBatchBytes); err != nil {
		return nil, err
	}
	if !strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		return sp.wire, nil
	}
	sp.src.Reset(sp.wire)
	if err := sp.zr.Reset(&sp.src); err != nil {
		return nil, fmt.Errorf("gzip stream: %w", err)
	}
	if sp.plain, err = appendBounded(sp.plain, &sp.zr, inflatedSize(sp.wire), server.MaxBatchBytes); err != nil {
		return nil, fmt.Errorf("gzip stream: %w", err)
	}
	return sp.plain, nil
}

// inflatedSize is the size a gzip stream declares for itself in its last
// four bytes, as a buffer-sizing hint: it is the sender's word, so it counts
// for no more than the budget, nor than DEFLATE's best ratio (1032:1) could
// make true. gz has had its ten-byte header read.
func inflatedSize(gz []byte) int64 {
	isize := int64(binary.LittleEndian.Uint32(gz[len(gz)-4:]))
	return min(isize, server.MaxBatchBytes, int64(len(gz))*1032)
}

var (
	errNotBatch     = errors.New("batch body must be a JSON array of sessions")
	errBatchTooLong = fmt.Errorf("batch exceeds the %d-session limit", server.MaxBatchSessions)
)

// malformedBatch is the refusal of a body that is not one JSON value. The walk
// knows only that it is not; encoding/json says where and why.
func malformedBatch(body []byte) error {
	return fmt.Errorf("malformed batch: %w", json.Unmarshal(body, new(json.RawMessage)))
}

// split checks that body is one well-formed JSON array and cuts it into one
// sub-batch per owning shard, elements byte for byte and in the caller's
// order. sp.elems keeps each element's owner, which is what maps a shard's
// positional report back. It is one pass that validates as it walks, then one
// copy into buffers allocated once; no element is decoded. Like
// encoding/json, it reads null as the empty array. It meets the element cap
// where a node's stream does: on whatever follows the last element allowed,
// unless that closes the array or is a '}'.
func (sp *batchSplit) split(ring *Ring, testID string, body []byte) ([]subBatch, error) {
	sp.elems = sp.elems[:0]
	subs := make([]subBatch, len(ring.shards))
	sizes := make([]int, len(subs))
	i, c := jsonscan.Next(body, 0)
	if c != '[' {
		end, _ := jsonscan.Value(body, i, 0)
		switch {
		case end < 0 || jsonscan.SkipSpace(body, end) < len(body):
			return nil, malformedBatch(body)
		case c == 'n':
			return subs, nil
		}
		return nil, errNotBatch
	}
	var end int
	for i, c = jsonscan.Next(body, i+1); c != ']'; i, c = jsonscan.Next(body, end) {
		if n := len(sp.elems); n > 0 {
			if n == server.MaxBatchSessions && c != 0 && c != '}' {
				return nil, errBatchTooLong
			}
			if c != ',' {
				return nil, malformedBatch(body)
			}
			i = jsonscan.SkipSpace(body, i+1)
		}
		var workerID []byte
		// A node decodes each element on its own, so the array is no level
		// of an element's depth.
		if end, workerID = scanElement(body, i, 0); end < 0 {
			return nil, malformedBatch(body)
		}
		owner := ring.sessionOwner(testID, workerID)
		sp.elems = append(sp.elems, element{start: i, end: end, shard: owner})
		subs[owner].n++
		sizes[owner] += end - i + 1 // the element and the ',' or ']' after it
	}
	if jsonscan.SkipSpace(body, i+1) < len(body) {
		return nil, malformedBatch(body)
	}

	for s, size := range sizes {
		if size > 0 {
			subs[s].body = append(make([]byte, 0, 1+size), '[') // sized to the byte
		}
	}
	for _, e := range sp.elems {
		sub := &subs[e.shard]
		sub.body = append(append(sub.body, body[e.start:e.end]...), ',')
	}
	for _, sub := range subs {
		if sub.body != nil {
			sub.body[len(sub.body)-1] = ']'
		}
	}
	return subs, nil
}
