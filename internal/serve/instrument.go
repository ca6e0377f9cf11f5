package serve

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"xmlviews/internal/obs"
)

// statusWriter remembers the status code a handler answered with, so the
// instrument middleware can label the request counter and the trace record.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a route handler with the per-request observability
// envelope: it resolves the request id (a valid client-supplied
// X-Request-Id is honored, anything else replaced), starts a trace on the
// request context, echoes the id on the response, and after the handler
// returns it counts the response by route and status. Pipeline routes
// (/query, /update) additionally land in the trace ring and, past the
// slow-request threshold, in the structured log.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		tr := obs.NewTrace(id)
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(tr.Begin)
		s.met.httpRequests.With(path, strconv.Itoa(status)).Inc()
		if path != "/query" && path != "/update" {
			return
		}
		s.ring.Add(obs.TraceRecord{
			ID:        id,
			Time:      tr.Begin,
			Path:      path,
			Status:    status,
			DurMicros: dur.Microseconds(),
			Attrs:     tr.Annotations(),
			Spans:     tr.Spans(),
		})
		if s.cfg.SlowQuery > 0 && dur >= s.cfg.SlowQuery {
			s.logSlow(path, status, dur, tr)
		}
	}
}

// logSlow emits exactly one structured log line for a slow pipeline
// request: correlation id, route, outcome, total latency, the trace's
// annotations (query text, plan, cost, epoch) in sorted key order, and the
// recorded span timings.
func (s *Server) logSlow(path string, status int, dur time.Duration, tr *obs.Trace) {
	args := []any{
		slog.String("request_id", tr.ID),
		slog.String("path", path),
		slog.Int("status", status),
		slog.Int64("dur_us", dur.Microseconds()),
	}
	attrs := tr.Annotations()
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		args = append(args, slog.String(k, attrs[k]))
	}
	if spans := tr.Spans(); len(spans) > 0 {
		args = append(args, slog.Any("spans", spans))
	}
	s.log.Warn("slow request", args...)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleTraces serves the bounded ring of recent /query and /update
// traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.ring.Snapshot())
}

// DebugHandler returns the daemon's debug routes — the Go pprof profiler
// plus the same /metrics and /debug/traces the main handler serves — meant
// for a separate, non-public listener (xvserve -debugaddr). Profiling is
// never mounted on the serving mux.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	return mux
}
