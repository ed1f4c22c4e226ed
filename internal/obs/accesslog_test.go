package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestAccessLog pins the middleware contract both daemons rely on: request
// IDs r-%08d counting from 1 and echoed as X-Request-Id, the status and
// byte count in the log line, and http.Flusher pass-through for SSE.
func TestAccessLog(t *testing.T) {
	var logs bytes.Buffer
	h := AccessLog(slog.New(slog.NewJSONHandler(&logs, nil)), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.Error(w, "gone", http.StatusNotFound)
			return
		}
		w.Write([]byte("data: one\n\n"))
		w.(http.Flusher).Flush()
	}))
	for i, want := range []struct {
		ID, Path      string
		Status, Bytes int
	}{
		{"r-00000001", "/v1/jobs/x/events", http.StatusOK, len("data: one\n\n")},
		{"r-00000002", "/missing", http.StatusNotFound, len("gone\n")},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, want.Path, nil))
		if got := rec.Header().Get("X-Request-Id"); got != want.ID {
			t.Errorf("%s: X-Request-Id = %q, want %q", want.Path, got, want.ID)
		}
		if i == 0 && !rec.Flushed {
			t.Error("Flush did not reach the underlying writer")
		}
		line, _ := logs.ReadBytes('\n')
		var got struct {
			Msg, ID, Path string
			Status, Bytes int
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("access-log line %q: %v", line, err)
		}
		if got.Msg != "request" || got.ID != want.ID || got.Path != want.Path || got.Status != want.Status || got.Bytes != want.Bytes {
			t.Errorf("log line %s, want %+v", bytes.TrimSpace(line), want)
		}
	}
}
