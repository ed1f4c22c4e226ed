package obs

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// AccessLog wraps an HTTP handler with per-request structured logging:
// monotonic request IDs (r-00000001, ...) echoed as X-Request-Id, method,
// path, status, response bytes, latency and remote address. Long-lived
// streams log once, on completion, with their full duration. mwcd and
// mwcrouter share it.
func AccessLog(logger *slog.Logger, next http.Handler) http.Handler {
	var nextID atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r-%08d", nextID.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("latency", time.Since(start)),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// statusWriter records the response status and size for the access log
// while passing streaming (http.Flusher) through — SSE endpoints, served
// or proxied, must still flush frame by frame.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }
