package server

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"kaleidoscope/internal/jsonscan"
)

// errTrailingData rejects request bodies that carry bytes after the JSON
// value. Historically the decoders stopped at the end of the first value
// and silently accepted `{"..."}junk`; every decode surface (single upload,
// builder, batch) now requires EOF after the value and answers 400.
var errTrailingData = errors.New("trailing data after JSON value")

// decodeStrict decodes exactly one JSON value from r into v, refusing a key
// no field of v has, and requires EOF (modulo whitespace) after it.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return requireEOF(dec)
}

// requireEOF asserts a decoder's stream holds nothing but whitespace.
func requireEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			return errTrailingData
		}
		return fmt.Errorf("%w: %v", errTrailingData, err)
	}
	return nil
}

// sessionWindow is the size a sessionReader's window starts at (a variable
// so the tests can make every element straddle a refill). It grows to hold
// the largest element met, as json.Decoder's buffer did.
var sessionWindow = 64 << 10

// maxPooledSession bounds the render buffer a pooled sessionReader keeps, and
// a window that grew is not kept at all: one huge element must not pin its
// size for as long as traffic keeps the pool warm.
const maxPooledSession = 64 << 10

// sessionReader takes session uploads off a request body: a sliding window
// over the stream in which elements are decoded where they lie, the decoded
// upload (its slices' capacity serves element after element) and the buffer
// its stored form is rendered in. Pooled, so nothing that outlives the
// request may point into it — decodeSession and the string conversion of
// the rendered form both copy.
type sessionReader struct {
	src io.Reader
	err error  // src's error, held back until the window is spent
	buf []byte // the window; buf[pos:] is unread
	pos int

	upload SessionUpload
	enc    []byte
}

var sessionReaderPool = sync.Pool{New: func() any { return new(sessionReader) }}

func acquireSessionReader(src io.Reader) *sessionReader {
	r := sessionReaderPool.Get().(*sessionReader)
	if cap(r.buf) != sessionWindow {
		r.buf = make([]byte, 0, sessionWindow)
	}
	r.src, r.err, r.buf, r.pos = src, nil, r.buf[:0], 0
	return r
}

func (r *sessionReader) release() {
	r.src = nil
	if cap(r.buf) > sessionWindow {
		r.buf = nil
	}
	if cap(r.enc) > maxPooledSession {
		r.enc = nil
	}
	sessionReaderPool.Put(r)
}

// fill moves the unread bytes to the front of the window, doubles a window
// they fill, and reads until the window is full or src fails. Reading to
// the brim is what keeps re-decoding a cut element linear: each retry sees
// at least a window more, or twice as much, than the one before.
func (r *sessionReader) fill() {
	r.buf = r.buf[:copy(r.buf, r.buf[r.pos:])]
	r.pos = 0
	if len(r.buf) == cap(r.buf) {
		r.buf = append(make([]byte, 0, 2*cap(r.buf)), r.buf...)
	}
	for len(r.buf) < cap(r.buf) && r.err == nil {
		var n int
		n, r.err = r.src.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+n]
	}
}

// peek skips whitespace and returns the byte after it, unconsumed; src's
// error (io.EOF at a clean end) once there is none. A run of whitespace of
// any length costs one look at each byte.
func (r *sessionReader) peek() (byte, error) {
	for {
		if r.pos = jsonscan.SkipSpace(r.buf, r.pos); r.pos < len(r.buf) {
			return r.buf[r.pos], nil
		}
		if r.err != nil {
			return 0, r.err
		}
		r.fill()
	}
}

// decode decodes the value the window stands on — call peek first — into
// r.upload and steps past it, reading on while the value may run past the
// window. It returns the size of the value, its own bytes only; also with a
// *refusal, which leaves the stream readable after the value.
func (r *sessionReader) decode() (int, error) {
	for {
		rest := r.buf[r.pos:]
		n, err := decodeSession(rest, &r.upload)
		// Only the byte after it ends a number, and json.Decoder asked for
		// that byte after a string or a literal too; an object or an array
		// closes itself.
		if err == errCutShort || n == len(rest) && rest[n-1] != '}' && rest[n-1] != ']' {
			if r.err == nil {
				r.fill()
				continue
			}
			if r.err != io.EOF {
				return 0, r.err
			}
			if err == errCutShort {
				return 0, io.ErrUnexpectedEOF
			}
		}
		r.pos += n
		return n, err
	}
}

// requireEOF asserts nothing but whitespace is left of the stream.
func (r *sessionReader) requireEOF() error {
	switch _, err := r.peek(); err {
	case io.EOF:
		return nil
	case nil:
		return errTrailingData
	default:
		return fmt.Errorf("%w: %v", errTrailingData, err)
	}
}

// gzipPool recycles gzip inflaters across batch requests.
var gzipPool sync.Pool

// acquireGzip returns a pooled gzip reader reset onto r; release it with
// releaseGzip.
func acquireGzip(r io.Reader) (*gzip.Reader, error) {
	if g, ok := gzipPool.Get().(*gzip.Reader); ok {
		if err := g.Reset(r); err != nil {
			gzipPool.Put(g)
			return nil, err
		}
		return g, nil
	}
	return gzip.NewReader(r)
}

func releaseGzip(g *gzip.Reader) {
	gzipPool.Put(g)
}

// budgetReader enforces the whole-batch decompressed-byte budget: a gzip
// bomb inflates past the budget and hits errBatchBudget long before it can
// exhaust memory, no matter how small its compressed form was.
type budgetReader struct {
	r io.Reader
	// remaining is budget+1: like http.MaxBytesReader, one slack byte lets
	// a stream of exactly budget bytes reach its real EOF while anything
	// longer errors on the read that brings that byte.
	remaining int64
}

var errBatchBudget = errors.New("batch exceeds decompressed byte budget")

func newBudgetReader(r io.Reader, budget int64) *budgetReader {
	return &budgetReader{r: r, remaining: budget + 1}
}

func (b *budgetReader) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, errBatchBudget
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	// The slack byte arriving is the overrun, also when r ends with it: a
	// reader that is handed EOF does not come back to be told.
	if b.remaining -= int64(n); b.remaining <= 0 {
		err = errBatchBudget
	}
	return n, err
}
