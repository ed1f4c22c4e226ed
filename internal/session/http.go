package session

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"congestmwc/internal/jobs"
	"congestmwc/internal/obs"
	"congestmwc/internal/store"
)

// HandlerConfig configures the HTTP surface of a Manager.
type HandlerConfig struct {
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxWait caps the ?wait= long-poll on GET /v1/graphs/{id}/mwc
	// (default 30s); longer waits are clamped.
	MaxWait time.Duration
	// Heartbeat is the SSE keep-alive interval on /events (default 15s).
	Heartbeat time.Duration
	// EventBuffer is the per-subscriber buffer for /events (default 0 =
	// the hub's ring size).
	EventBuffer int
}

// PatchRequest is the body of PATCH /v1/graphs/{id}.
type PatchRequest struct {
	Ops []Op `json:"ops"`
}

// NewHandler exposes the session manager over HTTP (mounted next to the
// jobs API by mwcd, see docs/SERVER.md "Dynamic sessions"):
//
//	POST   /v1/graphs             open a session from a job spec (201)
//	GET    /v1/graphs             list open sessions (?limit=N)
//	GET    /v1/graphs/{id}        session status
//	PUT    /v1/graphs/{id}        adopt a handed-off session (cluster; idempotent)
//	PATCH  /v1/graphs/{id}        apply a batch of edge ops (200; 400 invalid batch)
//	GET    /v1/graphs/{id}/mwc    current answer (?wait=5s long-polls past a recompute)
//	GET    /v1/graphs/{id}/events live state-transition stream (SSE; -observe only)
//	DELETE /v1/graphs/{id}        close the session
func NewHandler(m *Manager, cfg HandlerConfig) http.Handler {
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	maxWait := cfg.MaxWait
	if maxWait <= 0 {
		maxWait = 30 * time.Second
	}
	heartbeat := cfg.Heartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		var spec jobs.Spec
		if !obs.DecodeJSON(w, r, maxBody, "invalid request", &spec) {
			return
		}
		s, err := m.Create(spec)
		if err != nil {
			writeSessionError(w, err)
			return
		}
		obs.WriteJSON(w, http.StatusCreated, s.Status())
	})
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		var limit int
		if raw := r.URL.Query().Get("limit"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil {
				obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q: not an integer", raw))
				return
			}
			limit = v
		}
		obs.WriteJSON(w, http.StatusOK, map[string]any{"graphs": m.List(limit)})
	})
	mux.HandleFunc("GET /v1/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(w, err)
			return
		}
		obs.WriteJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("PUT /v1/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		var rec store.SessionRecord
		if !obs.DecodeJSON(w, r, maxBody, "invalid request", &rec) {
			return
		}
		rec.ID = r.PathValue("id")
		s, err := m.Adopt(&rec)
		if err != nil {
			writeSessionError(w, err)
			return
		}
		obs.WriteJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("PATCH /v1/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(w, err)
			return
		}
		var req PatchRequest
		if !obs.DecodeJSON(w, r, maxBody, "invalid request", &req) {
			return
		}
		res, err := s.Patch(req.Ops)
		if err != nil {
			writeSessionError(w, err)
			return
		}
		obs.WriteJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /v1/graphs/{id}/mwc", func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(w, err)
			return
		}
		var wait time.Duration
		if raw := r.URL.Query().Get("wait"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil || d < 0 {
				obs.HTTPError(w, http.StatusBadRequest,
					fmt.Sprintf("invalid wait %q: want a non-negative Go duration like 5s", raw))
				return
			}
			if d > maxWait {
				d = maxWait
			}
			wait = d
		}
		st, _ := s.Query(r.Context(), wait)
		// Clean sessions answer 200; a still-computing one answers 202 so
		// replay harnesses and pollers can tell "answer" from "try again".
		code := http.StatusOK
		if st.State == StateComputing || st.Result == nil {
			code = http.StatusAccepted
		}
		obs.WriteJSON(w, code, st)
	})
	mux.HandleFunc("GET /v1/graphs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(w, err)
			return
		}
		sub := s.Subscribe(cfg.EventBuffer)
		if sub == nil {
			obs.HTTPError(w, http.StatusConflict,
				"session event streaming is disabled: start the service with observability on (mwcd -observe)")
			return
		}
		// Same epoch fencing as the jobs stream: the epoch is the session's
		// generation, so a resume point from an earlier owning process
		// triggers a full replay.
		obs.ServeSSE(w, r, sub, s.Epoch(), heartbeat, m.cfg.Jobs.Draining())
	})
	mux.HandleFunc("DELETE /v1/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Delete(r.PathValue("id"))
		if err != nil {
			writeSessionError(w, err)
			return
		}
		obs.WriteJSON(w, http.StatusOK, st)
	})
	return mux
}

// writeSessionError maps a manager error onto the wire.
func writeSessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		obs.HTTPError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrTooMany):
		w.Header().Set("Retry-After", "5")
		obs.HTTPError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrClosed):
		obs.HTTPError(w, http.StatusServiceUnavailable, err.Error())
	default:
		obs.HTTPError(w, http.StatusBadRequest, err.Error())
	}
}

// WriteMetrics renders the session metrics in the Prometheus text
// exposition format (appended to the jobs metrics by mwcd's /metrics).
func WriteMetrics(w io.Writer, m Metrics) {
	g := func(name, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)
	}
	c := func(name, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, value)
	}
	g("mwcd_session_open", "Dynamic graph sessions currently open.", m.Open)
	c("mwcd_session_created_total", "Sessions opened.", m.Created)
	c("mwcd_session_closed_total", "Sessions closed.", m.Closed)
	c("mwcd_session_restored_total", "Sessions recovered from the durable store.", m.Restored)
	c("mwcd_session_patches_total", "PATCH batches applied.", m.Patches)
	c("mwcd_session_ops_total", "Individual edge ops applied.", m.Ops)
	c("mwcd_session_witness_kept_total", "PATCH batches absorbed with zero simulation (witness-scoped invalidation).", m.WitnessKept)
	c("mwcd_session_invalidations_total", "PATCH batches that invalidated the cached answer and scheduled a recompute.", m.Invalidations)
	c("mwcd_session_recomputes_total", "Recompute jobs submitted through the worker pool.", m.Recomputes)
	c("mwcd_session_queries_total", "MWC queries served.", m.Queries)
	c("mwcd_session_cached_answers_total", "Queries answered from the clean cached result with zero simulation.", m.CachedAnswers)
}
