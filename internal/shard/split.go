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

	"kaleidoscope/internal/server"
)

// This file is the router's reading of a session upload: just enough JSON
// structure to find where each element of a batch ends and whose it is,
// without building a Go value per session. The scanning functions take a
// document that has passed json.Valid; they trust its grammar and index
// without checking, so they must never see one that has not.

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString walks the string whose opening quote is b[i] and returns the
// index past its closing quote. plain says the bytes between the quotes are
// the string's value as they stand: ASCII, nothing escaped.
func skipString(b []byte, i int) (end int, plain bool) {
	plain = true
	for i++; ; i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain
		case c == '\\':
			plain = false
			i++ // whatever is escaped, it does not close the string
		case c >= 0x80:
			plain = false
		}
	}
}

// skipValue returns the index past the JSON value that starts at b[i].
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		end, _ := skipString(b, i)
		return end
	case '{', '[':
		for depth := 0; ; i++ {
			switch b[i] {
			case '"':
				end, _ := skipString(b, i)
				i = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	// A number or a literal runs to the next delimiter.
	for ; i < len(b); i++ {
		switch b[i] {
		case ',', '}', ']', ' ', '\n', '\t', '\r':
			return i
		}
	}
	return i
}

const workerIDKey = "worker_id"

// scanElement walks the JSON value that starts at b[i] — one session — and
// returns the index past it and the session's worker id.
//
// The id has to be the one the owning shard will decode and store: a
// session routed by any other lands a worker on two shards, which breaks the
// duplicate 409 and the session-list order. The shard decodes with
// encoding/json, whose struct-field matching is looser than it looks (keys
// match case-folded, Unicode folds included; a repeated key is decoded
// again; escapes and invalid UTF-8 are rewritten). So the walk takes the id
// itself only where none of that can apply — the value is an object, every
// top-level key is plain ASCII, exactly one of them folds to worker_id and
// is spelled so, and its value is a plain ASCII string — and hands every
// other element to encoding/json (probeWorkerID). That is wider than today's
// encoding/json needs — among repeated or case-variant ASCII keys the last
// string simply wins, which the walk would also find — but nothing here
// leans on it. FuzzBatchSplit holds the two readings equal.
func scanElement(b []byte, i int) (end int, workerID []byte) {
	start := i
	if b[i] != '{' {
		end = skipValue(b, i)
		return end, probeWorkerID(b[start:end])
	}
	sure, seen := true, false
	i = skipSpace(b, i+1)
	for b[i] != '}' {
		keyEnd, keyPlain := skipString(b, i)
		key := b[i+1 : keyEnd-1]
		i = skipSpace(b, skipSpace(b, keyEnd)+1) // past the ':' to the value
		isID := false
		switch {
		case !keyPlain:
			sure = false
		case len(key) == len(workerIDKey) && strings.EqualFold(string(key), workerIDKey):
			if seen || string(key) != workerIDKey {
				sure = false
			}
			seen, isID = true, true
		}
		if isID && b[i] == '"' {
			valEnd, valPlain := skipString(b, i)
			if !valPlain {
				sure = false
			}
			workerID = b[i+1 : valEnd-1]
			i = valEnd
		} else {
			if isID {
				sure = false // not a string: encoding/json decides what is stored
			}
			i = skipValue(b, i)
		}
		if i = skipSpace(b, i); b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	end = i + 1
	if !sure {
		workerID = probeWorkerID(b[start:end])
	}
	return end, workerID
}

// probeWorkerID is encoding/json's reading of a session's worker id. A
// session it cannot decode routes by whatever the field held when decoding
// stopped; the owning shard rejects that element either way.
func probeWorkerID(session []byte) []byte {
	var probe struct {
		WorkerID string `json:"worker_id"`
	}
	_ = json.Unmarshal(session, &probe)
	return []byte(probe.WorkerID)
}

// sessionWorkerID is the worker id of a single-session upload body; a body
// that is not JSON has none (its shard answers 400 wherever it lands).
func sessionWorkerID(body []byte) []byte {
	if !json.Valid(body) {
		return nil
	}
	_, id := scanElement(body, skipSpace(body, 0))
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

// split checks that body is one well-formed JSON array and cuts it into one
// sub-batch per owning shard, elements byte for byte and in the caller's
// order; sp.elems keeps each element's owner, which is what maps a shard's
// positional report back. One validation pass, one structural pass, one
// copy into buffers allocated once: no element is decoded unless scanElement has to ask encoding/json
// for its worker id. Like encoding/json, it reads null as the empty array.
func (sp *batchSplit) split(ring *Ring, testID string, body []byte) ([]subBatch, error) {
	sp.elems = sp.elems[:0]
	if !json.Valid(body) {
		return nil, fmt.Errorf("malformed batch: %w", json.Unmarshal(body, new(json.RawMessage)))
	}
	subs := make([]subBatch, len(ring.shards))
	sizes := make([]int, len(subs))
	i := skipSpace(body, 0)
	switch body[i] {
	case 'n':
		return subs, nil
	case '[':
		i = skipSpace(body, i+1)
	default:
		return nil, errNotBatch
	}
	for body[i] != ']' {
		if len(sp.elems) == server.MaxBatchSessions {
			return nil, errBatchTooLong
		}
		end, workerID := scanElement(body, i)
		owner := ring.sessionOwner(testID, workerID)
		sp.elems = append(sp.elems, element{start: i, end: end, shard: owner})
		subs[owner].n++
		sizes[owner] += end - i + 1 // the element and the ',' or ']' after it
		if i = skipSpace(body, end); body[i] == ',' {
			i = skipSpace(body, i+1)
		}
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
