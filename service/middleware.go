package service

import (
	"context"
	"net/http"
	"runtime/debug"
	"time"
)

// statusRecorder captures the response code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// ridKey carries the per-request id through the request context, so the
// access line and the handler's plan line share one id.
type ridKey struct{}

// requestID returns the id instrument assigned to the request (0 for a
// request that did not pass through instrument, e.g. direct handler
// tests).
func requestID(ctx context.Context) uint64 {
	id, _ := ctx.Value(ridKey{}).(uint64)
	return id
}

// instrument wraps the mux with panic recovery, request accounting
// (per-path/per-code counters, planning-latency histogram), request-id
// assignment, and structured access logging. It is the single seam
// every request passes through, so the /metrics numbers cannot drift
// from reality.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		id := s.reqSeq.Add(1)
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, id))
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				s.log.Error("handler panic",
					"id", id, "method", r.Method, "path", r.URL.Path,
					"panic", p, "stack", string(debug.Stack()))
				if rec.code == 0 {
					writeError(rec, http.StatusInternalServerError, errInternal)
				}
			}
			elapsed := time.Since(start)
			if rec.code == 0 {
				rec.code = http.StatusOK
			}
			s.met.recordRequest(r.URL.Path, rec.code)
			if r.URL.Path == "/plan" || r.URL.Path == "/batch" {
				s.met.latency.Observe(elapsed)
				// The rich per-plan record is the handler's Info line;
				// this is the transport-level view.
				s.log.Debug("http",
					"id", id, "method", r.Method, "path", r.URL.Path,
					"status", rec.code,
					"duration_ms", float64(elapsed.Microseconds())/1000)
			}
		}()
		next.ServeHTTP(rec, r)
	})
}
