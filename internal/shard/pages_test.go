package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// pageDeployment is one node, its blob store on the named backend, reached
// directly or through a router — the four ways an integrated page is served.
type pageDeployment struct {
	front   string // base URL the tester talks to
	blobs   *store.BlobStore
	blobDir string // "" on the memory backend
	agg     *aggregator.Aggregator
	nodeReg *obs.Registry
	// quiet returns once the node has returned from every request it has
	// begun, and so once its middleware has counted them.
	quiet func()
}

const pagesTestID = "pages-test"

func eachPageDeployment(t *testing.T, fn func(t *testing.T, d *pageDeployment)) {
	for _, backend := range []string{"memory", "dir"} {
		for _, via := range []string{"direct", "router"} {
			t.Run(backend+"/"+via, func(t *testing.T) {
				d := &pageDeployment{nodeReg: obs.NewRegistry()}
				d.blobs = store.NewBlobStore()
				if backend == "dir" {
					d.blobDir = t.TempDir()
					var err error
					if d.blobs, err = store.OpenBlobStore(d.blobDir); err != nil {
						t.Fatal(err)
					}
				}
				db := store.OpenMemory()
				var err error
				if d.agg, err = aggregator.New(db, d.blobs); err != nil {
					t.Fatal(err)
				}
				srv, err := server.New(db, d.blobs, server.WithObservability(d.nodeReg))
				if err != nil {
					t.Fatal(err)
				}
				var h http.Handler
				h, d.quiet = quiesce(obs.Middleware(srv, nil, d.nodeReg, server.RouteLabel))
				node := httptest.NewServer(h)
				t.Cleanup(node.Close)
				d.front = node.URL
				if via == "router" {
					rt, err := New(Config{
						Shards: []Spec{{Name: "s0", Primary: node.URL}},
						Policy: failover.Policy{Retries: 1, Backoff: time.Millisecond},
					})
					if err != nil {
						t.Fatal(err)
					}
					front := httptest.NewServer(rt)
					t.Cleanup(front.Close)
					d.front = front.URL
				}
				fn(t, d)
			})
		}
	}
}

// prepare provisions the test with the two versions at the given font sizes.
func (d *pageDeployment) prepare(t *testing.T, fontA, fontB int) {
	t.Helper()
	test := &params.Test{
		TestID: pagesTestID, WebpageNum: 2, TestDescription: "page serving", ParticipantNum: 10,
		Questions: []string{"Which is easier to read?"},
		Webpages: []params.Webpage{
			{WebPath: "a", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: "b", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
	sites := map[string]*webgen.Site{
		"a": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: fontA}),
		"b": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: fontB}),
	}
	if _, err := d.agg.Prepare(test, sites, nil); err != nil {
		t.Fatal(err)
	}
	d.settle(t)
}

// settle backdates the blob files, so the directory backend remembers the
// validators it computes instead of hashing a young file on every request —
// the tests then exercise the remembered path, which is the one that could
// go stale.
func (d *pageDeployment) settle(t *testing.T) {
	t.Helper()
	if d.blobDir == "" {
		return
	}
	old := time.Now().Add(-time.Hour)
	err := filepath.Walk(d.blobDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.Chtimes(path, old, old)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func pageKey(page, file string) string { return pagesTestID + "/" + page + "/" + file }

// get fetches one page file through the front door, conditionally when
// ifNoneMatch is set.
func (d *pageDeployment) get(t *testing.T, method, page, file, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	if ifNoneMatch != "" {
		return d.fetch(t, method, page, file, "If-None-Match", ifNoneMatch)
	}
	return d.fetch(t, method, page, file)
}

// fetch is get with any request headers, given as name, value pairs.
func (d *pageDeployment) fetch(t *testing.T, method, page, file string, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.front+"/api/tests/"+pagesTestID+"/pages/"+page+"/"+file, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s/%s: reading body: %v", method, page, file, err)
	}
	return resp, body
}

// quiesce wraps h, and the func it returns blocks until every request h
// has begun has returned from ServeHTTP. A middleware inside h counts as its
// handler returns, and the client can have the whole body (or its transport
// error) before that.
func quiesce(h http.Handler) (http.Handler, func()) {
	var serving sync.WaitGroup
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serving.Add(1)
		defer serving.Done()
		h.ServeHTTP(w, r)
	}), serving.Wait
}

func quotedSHA256(data []byte) string {
	sum := sha256.Sum256(data)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// TestPageValidators is the read path's contract, the same on every
// backend and with or without the router in between.
func TestPageValidators(t *testing.T) {
	const real, control = "pair-0-1", "control-same"
	eachPageDeployment(t, func(t *testing.T, d *pageDeployment) {
		d.prepare(t, 12, 22)

		// Unconditional GET: the stored bytes, their hash as a strong
		// validator, a declared length, revalidate-always caching.
		want, err := d.blobs.Get(pageKey(real, "left.html"))
		if err != nil {
			t.Fatal(err)
		}
		resp, body := d.get(t, http.MethodGet, real, "left.html", "")
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("GET = %d, %d bytes; blobs.Get holds %d", resp.StatusCode, len(body), len(want))
		}
		if etag != quotedSHA256(want) {
			t.Errorf("ETag = %s, want the payload's SHA-256 %s", etag, quotedSHA256(want))
		}
		if resp.ContentLength != int64(len(want)) {
			t.Errorf("Content-Length = %d, want %d", resp.ContentLength, len(want))
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
			t.Errorf("Cache-Control = %q, want no-cache (a test id can be deleted and prepared again)", cc)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
			t.Errorf("Content-Type = %q", ct)
		}

		// A matching validator: 304, nothing else.
		resp, body = d.get(t, http.MethodGet, real, "left.html", etag)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
			t.Errorf("conditional GET = %d with %d bytes, ETag %s; want 304, none, %s",
				resp.StatusCode, len(body), resp.Header.Get("ETag"), etag)
		}
		// One that does not match: the whole page.
		if resp, body = d.get(t, http.MethodGet, real, "left.html", `"0000"`); resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("GET with a foreign validator = %d, %d bytes; want 200 and the page", resp.StatusCode, len(body))
		}
		if resp, body = d.get(t, http.MethodHead, real, "left.html", ""); resp.StatusCode != http.StatusOK ||
			len(body) != 0 || resp.ContentLength != int64(len(want)) || resp.Header.Get("ETag") != etag {
			t.Errorf("HEAD = %d, %d bytes, Content-Length %d, ETag %s", resp.StatusCode, len(body), resp.ContentLength, resp.Header.Get("ETag"))
		}

		// Ranges: one that ends early, the two that run to the payload's end
		// (on the memory backend, the single write), with If-Range on either
		// side of the validator. Each is that slice of the stored bytes.
		n := len(want)
		for _, tc := range []struct {
			name       string
			header     []string
			status     int
			start, end int // the body is want[start:end]
		}{
			{"prefix", []string{"Range", "bytes=0-99"}, http.StatusPartialContent, 0, 100},
			{"from an offset", []string{"Range", "bytes=100-"}, http.StatusPartialContent, 100, n},
			{"suffix", []string{"Range", "bytes=-100"}, http.StatusPartialContent, n - 100, n},
			{"If-Range matches", []string{"Range", "bytes=-100", "If-Range", etag}, http.StatusPartialContent, n - 100, n},
			{"If-Range is stale", []string{"Range", "bytes=-100", "If-Range", `"0000"`}, http.StatusOK, 0, n},
		} {
			resp, body := d.fetch(t, http.MethodGet, real, "left.html", tc.header...)
			if resp.StatusCode != tc.status {
				t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
				continue
			}
			wantRange := ""
			if tc.status == http.StatusPartialContent {
				wantRange = fmt.Sprintf("bytes %d-%d/%d", tc.start, tc.end-1, n)
			}
			if !bytes.Equal(body, want[tc.start:tc.end]) {
				t.Errorf("%s: %d bytes, not the stored bytes %d:%d", tc.name, len(body), tc.start, tc.end)
			}
			if cr := resp.Header.Get("Content-Range"); cr != wantRange {
				t.Errorf("%s: Content-Range = %q, want %q", tc.name, cr, wantRange)
			}
			if resp.ContentLength != int64(tc.end-tc.start) {
				t.Errorf("%s: Content-Length = %d, want %d", tc.name, resp.ContentLength, tc.end-tc.start)
			}
			if resp.Header.Get("ETag") != etag {
				t.Errorf("%s: ETag = %s, want %s", tc.name, resp.Header.Get("ETag"), etag)
			}
		}
		// A range past the end is refused, with the length it is past.
		resp, _ = d.fetch(t, http.MethodGet, real, "left.html", "Range", fmt.Sprintf("bytes=%d-", n+10))
		if cr := resp.Header.Get("Content-Range"); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable || cr != fmt.Sprintf("bytes */%d", n) {
			t.Errorf("a range past the end = %d, Content-Range %q; want 416 and bytes */%d", resp.StatusCode, cr, n)
		}
		// Two ranges: a multipart answer through ServeContent's pipe, of a
		// declared length, each part with its own Content-Range.
		resp, body = d.fetch(t, http.MethodGet, real, "left.html", "Range", "bytes=0-0,-1")
		mediaType, mparams, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
		if resp.StatusCode != http.StatusPartialContent || err != nil || mediaType != "multipart/byteranges" ||
			resp.ContentLength != int64(len(body)) {
			t.Fatalf("two ranges = %d %q (%v), Content-Length %d over %d bytes",
				resp.StatusCode, resp.Header.Get("Content-Type"), err, resp.ContentLength, len(body))
		}
		parts := multipart.NewReader(bytes.NewReader(body), mparams["boundary"])
		for _, at := range []int{0, n - 1} {
			part, err := parts.NextPart()
			if err != nil {
				t.Fatalf("multipart answer: %v", err)
			}
			got, _ := io.ReadAll(part)
			if cr := part.Header.Get("Content-Range"); !bytes.Equal(got, want[at:at+1]) || cr != fmt.Sprintf("bytes %d-%d/%d", at, at, n) {
				t.Errorf("part at %d = %q, Content-Range %q", at, got, cr)
			}
		}
		if _, err := parts.NextPart(); err != io.EOF {
			t.Errorf("after two parts: %v, want io.EOF", err)
		}

		// The identical-pair control stores one payload under two keys.
		l, _ := d.get(t, http.MethodGet, control, "left.html", "")
		r, _ := d.get(t, http.MethodGet, control, "right.html", "")
		if l.Header.Get("ETag") == "" || l.Header.Get("ETag") != r.Header.Get("ETag") {
			t.Errorf("control-same: left ETag %s, right ETag %s; equal bytes must validate alike",
				l.Header.Get("ETag"), r.Header.Get("ETag"))
		}
		if other, _ := d.get(t, http.MethodGet, real, "right.html", ""); other.Header.Get("ETag") == l.Header.Get("ETag") {
			t.Error("the pair's two versions share a validator")
		}

		// A file stored with plain Put is served with its payload's
		// validator too, and a stale one buys nothing.
		if err := d.blobs.Put(pageKey(real, "extra.css"), []byte("body{}")); err != nil {
			t.Fatal(err)
		}
		resp, body = d.get(t, http.MethodGet, real, "extra.css", `"anything"`)
		if want := quotedSHA256([]byte("body{}")); resp.StatusCode != http.StatusOK || string(body) != "body{}" || resp.Header.Get("ETag") != want {
			t.Errorf("Put key = %d %q, ETag %q; want 200, the bytes, ETag %s",
				resp.StatusCode, body, resp.Header.Get("ETag"), want)
		}

		// On the node, a 304 is counted as a request and as zero bytes.
		const route = "GET /api/tests/{id}/pages"
		if got := d.nodeReg.Counter(obs.MetricRequests, "route", route, "status", "304").Value(); got != 1 {
			t.Errorf("%s{status=304} = %d, want 1", obs.MetricRequests, got)
		}
		var metrics bytes.Buffer
		d.nodeReg.WriteMetrics(&metrics)
		if !bytes.Contains(metrics.Bytes(), []byte(`status="304"`)) {
			t.Errorf("/metrics has no status=\"304\" series:\n%s", metrics.String())
		}

		// Delete the test and prepare the same id with other content: the
		// old validator must buy nothing.
		del, err := http.NewRequest(http.MethodDelete, d.front+"/api/tests/"+pagesTestID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE: %v, %v", resp, err)
		} else {
			resp.Body.Close()
		}
		if resp, _ = d.get(t, http.MethodGet, real, "left.html", etag); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET after DELETE = %d, want 404", resp.StatusCode)
		}
		d.prepare(t, 16, 22)
		fresh, err := d.blobs.Get(pageKey(real, "left.html"))
		if err != nil || bytes.Equal(fresh, want) {
			t.Fatalf("re-prepare did not change the page (%v)", err)
		}
		resp, body = d.get(t, http.MethodGet, real, "left.html", etag)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, fresh) || resp.Header.Get("ETag") != quotedSHA256(fresh) {
			t.Errorf("stale validator after re-prepare = %d, %d bytes, ETag %s; want 200, the new %d bytes, %s",
				resp.StatusCode, len(body), resp.Header.Get("ETag"), len(fresh), quotedSHA256(fresh))
		}
	})
}

// TestPageResponseBytesCounted: kscope_http_response_bytes_total counts a
// streamed page body exactly, and a 304 as nothing.
func TestPageResponseBytesCounted(t *testing.T) {
	eachPageDeployment(t, func(t *testing.T, d *pageDeployment) {
		d.prepare(t, 12, 22)
		bytesServed := d.nodeReg.Counter(obs.MetricResponseBytes, "route", "GET /api/tests/{id}/pages")
		resp, body := d.get(t, http.MethodGet, "pair-0-1", "left.html", "")
		d.quiet()
		if got := bytesServed.Value(); got != int64(len(body)) || len(body) < 50000 {
			t.Fatalf("after one %d-byte page the counter reads %d", len(body), got)
		}
		d.get(t, http.MethodGet, "pair-0-1", "left.html", resp.Header.Get("ETag"))
		d.get(t, http.MethodHead, "pair-0-1", "left.html", "")
		d.quiet()
		if got := bytesServed.Value(); got != int64(len(body)) {
			t.Errorf("a 304 and a HEAD moved the byte counter from %d to %d", len(body), got)
		}
		// A ranged body counts for what it is, whether it ends early (copied)
		// or runs to the payload's end (written in one piece).
		counted := int64(len(body))
		for _, r := range []string{"bytes=0-99", "bytes=-1000"} {
			_, part := d.fetch(t, http.MethodGet, "pair-0-1", "left.html", "Range", r)
			counted += int64(len(part))
			d.quiet()
			if got := bytesServed.Value(); got != counted || len(part) == 0 {
				t.Errorf("after Range %s (%d bytes) the counter reads %d, want %d", r, len(part), got, counted)
			}
		}
	})
}

// TestPageRewrittenByAnotherProcess: a second blob store on the serving
// node's directory (kscope prepare run beside it) rewrites a page file. The
// node's next answer carries the new bytes and their hash, and the old
// validator no longer matches — whichever put did the rewrite.
func TestPageRewrittenByAnotherProcess(t *testing.T) {
	eachPageDeployment(t, func(t *testing.T, d *pageDeployment) {
		if d.blobDir == "" {
			t.Skip("one process owns a memory store")
		}
		d.prepare(t, 12, 22)
		resp, before := d.get(t, http.MethodGet, "control-same", "left.html", "")
		etag := resp.Header.Get("ETag")
		twin, _ := d.get(t, http.MethodGet, "control-same", "right.html", "")

		other, err := store.OpenBlobStore(d.blobDir)
		if err != nil {
			t.Fatal(err)
		}
		putCAS := func(key string, data []byte) error { return other.PutCAS(key, store.NewPayload(data)) }
		for i, rewrite := range []func(string, []byte) error{putCAS, other.Put} {
			// Same length as the page it replaces.
			next := bytes.Repeat([]byte{byte('a' + i)}, len(before))
			if err := rewrite(pageKey("control-same", "left.html"), next); err != nil {
				t.Fatal(err)
			}
			d.settle(t)
			resp, body := d.get(t, http.MethodGet, "control-same", "left.html", etag)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, next) || resp.Header.Get("ETag") != quotedSHA256(next) {
				t.Fatalf("rewrite %d: GET = %d, ETag %s over %q...; want 200 and %s",
					i, resp.StatusCode, resp.Header.Get("ETag"), body[:8], quotedSHA256(next))
			}
			etag = resp.Header.Get("ETag")
			// The page it shared a CAS payload with is untouched.
			if resp, body := d.get(t, http.MethodGet, "control-same", "right.html", ""); !bytes.Equal(body, before) ||
				resp.Header.Get("ETag") != twin.Header.Get("ETag") {
				t.Fatalf("rewrite %d changed control-same/right.html through the hard link", i)
			}
		}
	})
}

// TestPageFetchDuringDelete: fetches racing a DELETE of the test get the
// complete page or a 404, never part of one (run under -race by make check).
func TestPageFetchDuringDelete(t *testing.T) {
	eachPageDeployment(t, func(t *testing.T, d *pageDeployment) {
		d.prepare(t, 12, 22)
		want, err := d.blobs.Get(pageKey("pair-0-1", "right.html"))
		if err != nil {
			t.Fatal(err)
		}
		fetchOnce := func() (int, error) {
			resp, err := http.Get(d.front + "/api/tests/" + pagesTestID + "/pages/pair-0-1/right.html")
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return 0, err
			}
			if resp.StatusCode == http.StatusOK && !bytes.Equal(body, want) {
				return 0, fmt.Errorf("200 with %d of the page's %d bytes", len(body), len(want))
			}
			return resp.StatusCode, nil
		}
		// Every fetcher fetches until the page is gone; the delete starts
		// once each has a whole page behind it.
		var wg, fetching sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			fetching.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					status, err := fetchOnce()
					if i == 0 {
						fetching.Done()
					}
					if err != nil || (status != http.StatusOK && status != http.StatusNotFound) {
						t.Errorf("fetch %d = %d, %v; want the whole page or 404", i, status, err)
						return
					}
					if status == http.StatusNotFound {
						return
					}
				}
			}()
		}
		fetching.Wait()
		if _, err := d.blobs.DeletePrefix(pagesTestID + "/"); err != nil {
			t.Error(err)
		}
		wg.Wait()
	})
}

// TestPageFetchDuringOverwrite: fetches racing PutCAS flipping one key between
// two payloads get one of them whole, under the validator that is its hash —
// the slice a response writes is never the one an overwrite fills (run under
// -race by make check).
func TestPageFetchDuringOverwrite(t *testing.T) {
	eachPageDeployment(t, func(t *testing.T, d *pageDeployment) {
		d.prepare(t, 12, 22)
		key := pageKey("pair-0-1", "left.html")
		first, err := d.blobs.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		// Longer than the page and than the router's relay buffer.
		second := bytes.Repeat([]byte("another page "), 12000)
		etags := map[string]bool{quotedSHA256(first): true, quotedSHA256(second): true}

		stop := make(chan struct{})
		fetched := make(chan struct{}, 1) // a fetch has completed since the last swap
		var wg, fetching sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			fetching.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					resp, err := http.Get(d.front + "/api/tests/" + pagesTestID + "/pages/pair-0-1/left.html")
					if i == 0 {
						fetching.Done()
					}
					if err != nil {
						t.Errorf("fetch %d: %v", i, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					etag := resp.Header.Get("ETag")
					if err != nil || resp.StatusCode != http.StatusOK || !etags[etag] || quotedSHA256(body) != etag {
						t.Errorf("fetch %d = %d, %v: %d bytes hashing to %s under ETag %s; want one payload, whole",
							i, resp.StatusCode, err, len(body), quotedSHA256(body), etag)
						return
					}
					select {
					case fetched <- struct{}{}:
					default:
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		fetching.Wait()
		exited := make(chan struct{})
		go func() { wg.Wait(); close(exited) }()
		for i := 0; i < 40; i++ {
			next := second
			if i%2 == 1 {
				next = first
			}
			if err := d.blobs.PutCAS(key, store.NewPayload(next)); err != nil {
				t.Error(err)
			}
			select {
			case <-fetched:
			case <-exited: // every fetcher failed, and said why
			}
		}
		close(stop)
		<-exited
	})
}
