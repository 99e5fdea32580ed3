package obs

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndKey(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs", "route", "GET /x", "status", "200")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored
	if got := c.Value(); got != 3 {
		t.Errorf("value = %d, want 3", got)
	}
	// Same name+labels returns the same counter.
	if r.Counter("reqs", "route", "GET /x", "status", "200") != c {
		t.Error("counter identity lost")
	}
	var b bytes.Buffer
	r.WriteMetrics(&b)
	want := `reqs{route="GET /x",status="200"} 3`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 5.55 || got > 5.56 {
		t.Errorf("sum = %g", got)
	}
	var b bytes.Buffer
	r.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="0.01"} 1`,
		`lat_bucket{le="0.1"} 2`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		`lat_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(DefLatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); got < 7.99 || got > 8.01 {
		t.Errorf("sum = %g, want ~8", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	r.RegisterGauge(`ratio{cache="info"}`, func() float64 { return 0.75 })
	var b bytes.Buffer
	r.WriteMetrics(&b)
	if !strings.Contains(b.String(), `ratio{cache="info"} 0.75`) {
		t.Errorf("exposition missing gauge:\n%s", b.String())
	}
}

func TestMiddleware(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The request-scoped logger is reachable from the context.
		ContextLogger(r.Context()).Info("inner")
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("short and stout"))
	})
	h := Middleware(inner, logger, reg, func(r *http.Request) string { return "GET /teapot" })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/teapot", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("missing request id header")
	}
	if got := reg.Counter(MetricRequests, "route", "GET /teapot", "status", "418").Value(); got != 1 {
		t.Errorf("request counter = %d", got)
	}
	if got := reg.Histogram(MetricRequestDuration, DefLatencyBuckets, "route", "GET /teapot").Count(); got != 1 {
		t.Errorf("histogram count = %d", got)
	}
	log := logBuf.String()
	for _, want := range []string{"request_id=", "status=418", "route=\"GET /teapot\""} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "x 1") {
		t.Errorf("metrics = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
}

// readerFromRecorder is a ResponseWriter with an io.ReaderFrom of its own,
// as net/http's is.
type readerFromRecorder struct {
	*httptest.ResponseRecorder
	readFroms int
}

func (r *readerFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.readFroms++
	return io.Copy(r.ResponseRecorder, src)
}

// TestMiddlewareCountsCopiedBodies: io.Copy into the middleware's writer
// reaches the wrapped writer's ReadFrom when it has one (and plain Write when
// it has not), and the bytes are counted either way.
func TestMiddlewareCountsCopiedBodies(t *testing.T) {
	body := strings.Repeat("streamed ", 10000)
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		// As http.ServeContent copies: the source has no WriteTo of its own.
		if _, err := io.Copy(w, io.LimitReader(strings.NewReader(body), int64(len(body)))); err != nil {
			t.Error(err)
		}
	})
	for _, hasReadFrom := range []bool{false, true} {
		reg := NewRegistry()
		rf := &readerFromRecorder{ResponseRecorder: httptest.NewRecorder()}
		var w http.ResponseWriter = rf.ResponseRecorder
		if hasReadFrom {
			w = rf
		}
		Middleware(inner, nil, reg, nil).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/page", nil))
		if rf.Code != http.StatusOK || rf.Body.String() != body {
			t.Errorf("ReadFrom=%v: status %d, %d bytes; want 200 and %d", hasReadFrom, rf.Code, rf.Body.Len(), len(body))
		}
		if got := reg.Counter(MetricResponseBytes, "route", "GET").Value(); got != int64(len(body)) {
			t.Errorf("ReadFrom=%v: %s = %d, want %d", hasReadFrom, MetricResponseBytes, got, len(body))
		}
		if (rf.readFroms == 1) != hasReadFrom {
			t.Errorf("ReadFrom=%v: the wrapped writer's ReadFrom ran %d times", hasReadFrom, rf.readFroms)
		}
	}
}

// TestMiddlewareAccountsAbortedRequest: a handler that panics after part of
// its answer has gone out — the router's relay when a shard dies mid-page —
// is counted once with the status it wrote and the bytes it wrote, has a
// duration sample and a log line marked aborted=true, and the panic reaches
// net/http as the value it was. One that panics before writing is status 0.
func TestMiddlewareAccountsAbortedRequest(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("half"))
		panic(http.ErrAbortHandler)
	})
	h := Middleware(inner, slog.New(slog.NewTextHandler(&logBuf, nil)), reg, nil)
	func() {
		defer func() {
			if got := recover(); got != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler itself", got)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/page", nil))
	}()
	if got := reg.Counter(MetricRequests, "route", "GET", "status", "200").Value(); got != 1 {
		t.Errorf("%s = %d, want the aborted request counted once", MetricRequests, got)
	}
	if got := reg.Counter(MetricResponseBytes, "route", "GET").Value(); got != 4 {
		t.Errorf("%s = %d, want the 4 bytes that went out", MetricResponseBytes, got)
	}
	if got := reg.Histogram(MetricRequestDuration, DefLatencyBuckets, "route", "GET").Count(); got != 1 {
		t.Errorf("duration samples = %d, want 1", got)
	}
	var metrics bytes.Buffer
	reg.WriteMetrics(&metrics)
	if !strings.Contains(metrics.String(), MetricInflight+" 0") {
		t.Errorf("inflight did not return to 0:\n%s", metrics.String())
	}
	for _, want := range []string{"status=200", "bytes=4", "aborted=true"} {
		if !strings.Contains(logBuf.String(), want) {
			t.Errorf("log line missing %q:\n%s", want, logBuf.String())
		}
	}

	// A panic before anything was written: net/http sends no status line, so
	// the request is not a 200 (which is what a silent return defaults to).
	logBuf.Reset()
	early := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("bug") })
	func() {
		defer func() {
			if got := recover(); got != "bug" {
				t.Errorf("recovered %v, want the handler's own value", got)
			}
		}()
		Middleware(early, slog.New(slog.NewTextHandler(&logBuf, nil)), reg, nil).
			ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/page", nil))
	}()
	if got := reg.Counter(MetricRequests, "route", "GET", "status", "0").Value(); got != 1 {
		t.Errorf("%s{status=0} = %d, want the panic-before-write counted once", MetricRequests, got)
	}
	if got := reg.Counter(MetricRequests, "route", "GET", "status", "200").Value(); got != 1 {
		t.Errorf("%s{status=200} = %d, want it unmoved by a request that sent nothing", MetricRequests, got)
	}
	if got := reg.Counter(MetricResponseBytes, "route", "GET").Value(); got != 4 {
		t.Errorf("%s = %d, want it unmoved", MetricResponseBytes, got)
	}
	for _, want := range []string{"status=0", "bytes=0", "aborted=true"} {
		if !strings.Contains(logBuf.String(), want) {
			t.Errorf("log line missing %q:\n%s", want, logBuf.String())
		}
	}

	// A request that ends normally says nothing about aborting.
	logBuf.Reset()
	Middleware(http.NotFoundHandler(), slog.New(slog.NewTextHandler(&logBuf, nil)), nil, nil).
		ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if log := logBuf.String(); !strings.Contains(log, "status=404") || strings.Contains(log, "aborted") {
		t.Errorf("log line of a completed request:\n%s", log)
	}
}

// TestMiddlewareQuietLoggerIsDisabled: with no logger the middleware's own
// line and a handler's ContextLogger lines are refused at Enabled, before a
// record is built, and the logger a handler gets is still usable.
func TestMiddlewareQuietLoggerIsDisabled(t *testing.T) {
	var got *slog.Logger
	inner := http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		got = ContextLogger(r.Context())
		got.With("k", "v").WithGroup("g").Error("dropped", "n", 1)
	})
	Middleware(inner, nil, nil, nil).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if got == nil || got == slog.Default() {
		t.Fatalf("ContextLogger under a nil logger = %v, want the middleware's own", got)
	}
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelError} {
		if got.Enabled(context.Background(), level) {
			t.Errorf("the quiet logger is enabled at %v: every request would format its line", level)
		}
	}
}

// BenchmarkMiddleware is one request through the middleware over a 204
// handler: quiet is how deploy and the benchmark assemble a node (-quiet),
// logging formats the line into io.Discard.
func BenchmarkMiddleware(b *testing.B) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	for _, bc := range []struct {
		name   string
		logger *slog.Logger
	}{
		{"quiet", nil},
		{"logging", slog.New(slog.NewTextHandler(io.Discard, nil))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := Middleware(inner, bc.logger, NewRegistry(), func(*http.Request) string { return "GET /x" })
			req := httptest.NewRequest(http.MethodGet, "/x", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		})
	}
}
