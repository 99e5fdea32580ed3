package obs

import (
	"bytes"
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
