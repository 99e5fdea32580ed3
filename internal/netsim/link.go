package netsim

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Link is a network with no sockets: a table of host → http.Handler that is
// itself the http.RoundTripper reaching http://host/. A request runs its
// handler on a goroutine of its own into a buffered response and returns when
// the handler does, its context ends, or Sever cuts its host. The handler gets
// a clone with RequestURI, Host, a non-nil Body and one loopback RemoteAddr.
// panic(http.ErrAbortHandler) cuts the body short; any other panic crashes.
type Link struct {
	mu    sync.Mutex
	hosts map[string]http.Handler  // nil once closed
	cuts  map[string]chan struct{} // closed by Sever
	wg    sync.WaitGroup
}

// Serve puts h behind host and returns its base URL.
func (l *Link) Serve(host string, h http.Handler) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hosts == nil {
		l.hosts, l.cuts = map[string]http.Handler{}, map[string]chan struct{}{}
	}
	l.hosts[host], l.cuts[host] = h, make(chan struct{})
	return "http://" + host
}

// Sever fails what is in flight to host, as a killed process's dropped
// connections do; later requests reach host again.
func (l *Link) Sever(host string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	close(l.cuts[host])
	l.cuts[host] = make(chan struct{})
}

// Close refuses new requests and waits for the handlers still running.
func (l *Link) Close() { l.mu.Lock(); l.hosts = nil; l.mu.Unlock(); l.wg.Wait() }

// RoundTrip serves req on its host's handler.
func (l *Link) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	r, host, done := req.Clone(ctx), req.URL.Host, make(chan struct{})
	r.RequestURI, r.Host, r.RemoteAddr = req.URL.RequestURI(), host, "127.0.0.1:40000"
	if r.Body == nil {
		r.Body = http.NoBody
	}
	l.mu.Lock()
	h, cut := l.hosts[host], l.cuts[host]
	if h != nil {
		l.wg.Add(1)
	}
	l.mu.Unlock()
	if h == nil {
		r.Body.Close()
		return nil, fmt.Errorf("netsim: no host %q on the link", host)
	}
	w := &response{Response: http.Response{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, ContentLength: -1, Request: req}, end: io.EOF}
	go func() {
		defer func() {
			if p := recover(); p != nil && p != http.ErrAbortHandler {
				panic(p)
			} else if p != nil {
				w.end = fmt.Errorf("netsim: %s aborted the response", host)
			}
			r.Body.Close()
			close(done)
			l.wg.Done()
		}()
		h.ServeHTTP(w, r)
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-cut:
		return nil, fmt.Errorf("netsim: %s severed", host)
	case <-done:
	}
	if w.end == io.EOF {
		w.ContentLength = int64(w.buf.Len())
	} else if w.StatusCode == 0 {
		return nil, w.end // nothing was sent before the abort
	}
	w.WriteHeader(http.StatusOK)
	w.Body = w
	return &w.Response, nil
}

// response is a handler's side of one request on a Link, then the caller's
// body: what the handler wrote, ended by io.EOF or by the abort.
type response struct {
	http.Response
	buf bytes.Buffer
	end error
}

func (w *response) Header() http.Header         { return w.Response.Header }
func (w *response) Close() error                { return nil }
func (w *response) Write(p []byte) (int, error) { w.WriteHeader(http.StatusOK); return w.buf.Write(p) }
func (w *response) WriteHeader(code int)        { w.StatusCode = cmp.Or(w.StatusCode, code) }
func (w *response) Read(p []byte) (int, error) {
	if n, err := w.buf.Read(p); err != io.EOF {
		return n, err
	}
	return 0, w.end
}
