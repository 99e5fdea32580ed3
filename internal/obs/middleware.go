package obs

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Metric names emitted by Middleware.
const (
	MetricRequests        = "kscope_http_requests_total"
	MetricRequestDuration = "kscope_http_request_duration_seconds"
	MetricResponseBytes   = "kscope_http_response_bytes_total"
	// MetricInflight gauges requests currently being served — what a
	// graceful shutdown drains to zero.
	MetricInflight = "kscope_http_inflight_requests"
)

// RouteFunc maps a request onto a low-cardinality route label ("GET
// /api/tests/{id}"). Returning "" labels the request "other".
type RouteFunc func(*http.Request) string

type ctxKey int

const loggerKey ctxKey = 0

// ContextLogger returns the request-scoped logger installed by Middleware,
// or slog.Default() outside of one.
func ContextLogger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok {
		return l
	}
	return slog.Default()
}

// statusWriter captures the response status and size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// ReadFrom keeps io.Copy and http.ServeContent on the wrapped writer's own
// io.ReaderFrom — for net/http's writer that is sendfile(2) when the source
// is a file — and counts what it copied. Without it io.Copy would fall back
// to Write through a buffer of its own, and a file would be read into user
// space first. A body already in memory does not come this way: the page
// handler and the router's relay hand it to Write, which counts it.
func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	var n int64
	var err error
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(src)
	} else {
		n, err = io.Copy(struct{ io.Writer }{w.ResponseWriter}, src)
	}
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying writer when it supports streaming.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// discardHandler is Go 1.24's slog.DiscardHandler (go.mod says 1.22). Its
// Enabled is false, so a logger over it formats nothing.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// reqSeq numbers requests process-wide for the request id.
var reqSeq atomic.Int64

// Middleware wraps next with request-scoped structured logging and metrics:
// one log line per request (method, path, route, status, duration, bytes,
// request id), a request counter by route and status, a latency histogram
// by route, and a response-size counter. A nil logger disables logging; a
// nil registry disables metrics; a nil route function labels every request
// by its method only. A handler that panics (the router aborts a relay with
// http.ErrAbortHandler) is accounted with the status and bytes that went
// out — status 0 if it panicked before its header, when net/http sends no
// status line — aborted=true on its log line, and goes on panicking.
func Middleware(next http.Handler, logger *slog.Logger, reg *Registry, route RouteFunc) http.Handler {
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	var inflight atomic.Int64
	if reg != nil {
		reg.RegisterGauge(MetricInflight, func() float64 {
			return float64(inflight.Load())
		})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		start := time.Now()
		id := reqSeq.Add(1)
		reqLogger := logger.With("request_id", id)
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-ID", strconv.FormatInt(id, 10))
		label := ""
		if route != nil {
			label = route(r)
		}
		if label == "" {
			label = r.Method
		}
		aborted := true
		defer func() {
			if sw.status == 0 && !aborted {
				sw.status = http.StatusOK
			}
			elapsed := time.Since(start)
			if reg != nil {
				status := strconv.Itoa(sw.status)
				reg.Counter(MetricRequests, "route", label, "status", status).Inc()
				reg.Counter(MetricResponseBytes, "route", label).Add(sw.bytes)
				reg.Histogram(MetricRequestDuration, DefLatencyBuckets, "route", label).Observe(elapsed.Seconds())
			}
			if aborted {
				reqLogger = reqLogger.With("aborted", true)
			}
			reqLogger.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"route", label,
				"status", sw.status,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"bytes", sw.bytes,
			)
		}()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), loggerKey, reqLogger)))
		aborted = false
	})
}
