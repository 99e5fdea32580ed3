package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/guard"
	"kaleidoscope/internal/server"
)

// route labels one kind of tester request; latencies and spans are kept
// per route.
type route int

const (
	routeInfo route = iota
	routePage
	routeUpload
	routeBatch
	routeResultsRaw
	routeResultsQC
	routeResultsCold // the ?quality=1 poll right after a test's first batch
	routeRef         // a request of a reference session (ref.go), never to the topology
	nRoutes
)

var routeNames = [nRoutes]string{"info", "page", "upload", "batch", "results_raw", "results_qc", "results_cold", "ref"}

// wireCount counts socket bytes both ways. The transport's read and write
// loops run on their own goroutines, hence atomics.
type wireCount struct {
	in, out atomic.Int64
}

func (w *wireCount) total() int64 { return w.in.Load() + w.out.Load() }

type countingConn struct {
	net.Conn
	w *wireCount
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.out.Add(int64(n))
	return n, err
}

// tester is one closed-loop stream of crowd members: one keep-alive
// connection, no retries, and a browser-like validator cache that lives for
// one participant (flowSession empties it: every worker id the tester plays
// arrives with a cold browser cache).
type tester struct {
	base  string
	httpc *http.Client
	tr    *tracer // nil when untraced
	wire  wireCount
	etags map[string]string // this participant's cache: URL -> ETag of the last 200
	rbuf  bytes.Buffer

	// The reference stand-in (ref.go); refAddr is "" when the pass takes no
	// reference. Its traffic stays out of wire.
	refAddr string
	refBody []byte        // the reference session's upload: a real session of the script
	refLat  []float64     // ms per reference session, since the last resetPart
	refTime time.Duration // spent in reference requests, since the last resetPart

	lat         [nRoutes][]float64 // ms, since the last resetPart
	attempted   int
	failed      int
	firstErr    error
	acked       map[string]int // test id -> sessions acknowledged 201
	pageBytes   int64          // response body bytes of page fetches, as sent
	pageFetches int64
}

func newTester(base string, tr *tracer) *tester {
	c := &tester{base: base, tr: tr, etags: map[string]string{}, acked: map[string]int{}}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.httpc = &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				if addr == c.refAddr {
					return conn, nil
				}
				return countingConn{conn, &c.wire}, nil
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			// The tester sets Accept-Encoding itself and decodes itself.
			DisableCompression: true,
		},
		Timeout: 60 * time.Second,
	}
	return c
}

func (c *tester) close() { c.httpc.CloseIdleConnections() }

// resetPart forgets the latencies of the part just harvested.
func (c *tester) resetPart() {
	for r := range c.lat {
		c.lat[r] = c.lat[r][:0]
	}
	c.refLat, c.refTime = c.refLat[:0], 0
}

func (c *tester) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf(format, args...)
	}
}

// do sends one request and reads the whole reply; the latency covers
// both. The returned body is valid until the next call. ok is false when
// the transport failed (already counted).
func (c *tester) do(rt route, method, url string, body []byte, hdr map[string]string) (resp *http.Response, data []byte, ok bool) {
	c.attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		c.fail("%s %s: %v", method, url, err)
		return nil, nil, false
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	var s span
	if c.tr != nil {
		s = span{ID: c.tr.newID(), Kind: kindClient, Route: routeNames[rt]}
		req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
		s.Start = c.tr.now()
	}
	start := time.Now()
	resp, err = c.httpc.Do(req)
	if err == nil {
		c.rbuf.Reset()
		_, err = c.rbuf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	c.lat[rt] = append(c.lat[rt], float64(time.Since(start))/1e6)
	if c.tr != nil {
		s.Bytes = int64(c.rbuf.Len())
		c.tr.record(s)
	}
	if err != nil {
		c.fail("%s %s: %v", method, url, err)
		return nil, nil, false
	}
	return resp, c.rbuf.Bytes(), true
}

func (c *tester) testURL(t *scriptTest) string { return c.base + "/api/tests/" + t.ID }

func (c *tester) getInfo(t *scriptTest) {
	url := c.testURL(t)
	resp, data, ok := c.do(routeInfo, http.MethodGet, url, nil, nil)
	if ok && (resp.StatusCode != http.StatusOK || len(data) == 0) {
		c.fail("GET %s: status %d, %d bytes", url, resp.StatusCode, len(data))
	}
}

// getPage fetches one file of one integrated page the way the extension's
// iframe does: it always offers gzip, revalidates with If-None-Match when
// (and only when) an earlier reply carried an ETag, and accepts 304.
func (c *tester) getPage(t *scriptTest, page, file int) {
	pageID := realPage
	if page == 1 {
		pageID = controlPage
	}
	url := c.testURL(t) + "/pages/" + pageID + "/" + pageFiles[file]
	hdr := map[string]string{"Accept-Encoding": "gzip"}
	etag, validating := c.etags[url]
	if validating {
		hdr["If-None-Match"] = etag
	}
	resp, data, ok := c.do(routePage, http.MethodGet, url, nil, hdr)
	if !ok {
		return
	}
	c.pageBytes += int64(len(data))
	c.pageFetches++
	switch {
	case resp.StatusCode == http.StatusNotModified && validating:
		return
	case resp.StatusCode != http.StatusOK:
		c.fail("GET %s: status %d", url, resp.StatusCode)
		return
	}
	if e := resp.Header.Get("ETag"); e != "" {
		c.etags[url] = e
	}
	n := len(data)
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			c.fail("GET %s: gzip: %v", url, err)
			return
		}
		m, err := io.Copy(io.Discard, zr)
		if err != nil {
			c.fail("GET %s: gzip: %v", url, err)
			return
		}
		n = int(m)
	}
	if n != t.PageLen[page][file] {
		c.fail("GET %s: %d bytes, want %d", url, n, t.PageLen[page][file])
	}
}

func (c *tester) upload(t *scriptTest, idx int) {
	url := c.testURL(t) + "/sessions"
	resp, data, ok := c.do(routeUpload, http.MethodPost, url, t.Singles[idx], map[string]string{
		"Content-Type":       "application/json",
		guard.WorkerIDHeader: t.Workers[idx],
	})
	if !ok {
		return
	}
	if resp.StatusCode != http.StatusCreated {
		c.fail("POST %s: status %d: %s", url, resp.StatusCode, data)
		return
	}
	c.acked[t.ID]++
}

func (c *tester) uploadBatch(t *scriptTest, b int) {
	url := c.testURL(t) + "/sessions:batch"
	resp, data, ok := c.do(routeBatch, http.MethodPost, url, t.Batches[b], map[string]string{
		"Content-Type":     "application/json",
		"Content-Encoding": "gzip",
	})
	if !ok {
		return
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.ConcludedHeader) != "" {
		c.fail("POST %s: status %d: %.200s", url, resp.StatusCode, data)
		return
	}
	var report server.BatchReport
	if err := json.Unmarshal(data, &report); err != nil {
		c.fail("POST %s: decoding report: %v", url, err)
		return
	}
	stored := 0
	for _, el := range report.Results {
		if el.Status == http.StatusCreated {
			stored++
		}
	}
	c.acked[t.ID] += stored
	if stored != batchSize || len(report.Results) != batchSize {
		c.fail("POST %s: %d of %d elements stored", url, stored, len(report.Results))
	}
}

// results polls the experimenter's endpoint and returns the body (valid
// until the next call).
func (c *tester) results(t *scriptTest, rt route, qc bool) []byte {
	url := c.testURL(t) + "/results"
	if qc {
		url += "?quality=1"
	}
	resp, data, ok := c.do(rt, http.MethodGet, url, nil, nil)
	if !ok {
		return nil
	}
	if resp.StatusCode != http.StatusOK || len(data) == 0 {
		c.fail("GET %s: status %d, %d bytes", url, resp.StatusCode, len(data))
		return nil
	}
	return data
}

// flowSession is the Fig. 3 tester flow for one participant: test info,
// both integrated pages, the first page again (the iframe reload), the
// session upload — and, after this tester's every pollEvery-th session of
// the test, the experimenter's raw and quality-controlled polls.
//
// The participant starts with an empty validator cache, so the 6 first
// fetches are never conditional and only the reload's 3 can revalidate.
func (c *tester) flowSession(t *scriptTest, idx, nTesters int) {
	clear(c.etags)
	c.getInfo(t)
	for page := 0; page < 2; page++ {
		for file := range pageFiles {
			c.getPage(t, page, file)
		}
	}
	for file := range pageFiles {
		c.getPage(t, 0, file)
	}
	c.upload(t, idx)
	if (idx/nTesters+1)%pollEvery == 0 {
		c.results(t, routeResultsRaw, false)
		c.results(t, routeResultsQC, true)
	}
}

// batchTest uploads one test's crowd as two gzip batches, polling the
// quality-controlled results once after the first: the accumulator is
// cold, so that poll pays the rebuild.
func (c *tester) batchTest(t *scriptTest) {
	c.uploadBatch(t, 0)
	c.results(t, routeResultsCold, true)
	for b := 1; b < len(t.Batches); b++ {
		c.uploadBatch(t, b)
	}
}
